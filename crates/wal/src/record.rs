//! The one envelope, on the wire and in the log, and the one checksum.
//!
//! Every wire message and every logged record is one **frame**:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic  "LDPW" (MAGIC)
//!      4     1  protocol version (WIRE_VERSION, currently 7)
//!      5     1  frame type
//!      6     2  reserved, must be zero
//!      8     4  payload length, little-endian u32
//!     12     4  payload checksum (checksum), little-endian u32
//!     16     n  payload
//! ```
//!
//! Every file the log writes is frames back to back. A segment holds one
//! [`INGEST`] frame per appended payload — the wire's own ingest frame,
//! byte for byte — and an empty [`SEAL`] frame at a clean shutdown; a
//! record's sequence number is the first sequence in the file's name plus
//! the frame's index. A checkpoint holds its state in [`CHECKPOINT`]
//! frames, then one empty [`SEAL`] frame that marks it complete.
//!
//! The payload layouts of the wire's frame types live in
//! `ldp_server::wire`, which re-exports everything here; this crate knows
//! only the envelope and stays dependency-free. Both read every frame —
//! socket, segment, checkpoint — through one [`FrameReader`]: it parses
//! and bounds each header ([`split_frame`]), the caller checks the type
//! and verifies the checksum before any payload byte is interpreted, so a
//! torn write or a flipped bit is refused, never decoded as garbage.

use std::fmt;
use std::io::ErrorKind::{self, Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"LDPW";
/// Current protocol version, carried by every frame on the wire and in
/// the log (the log directory's format stamp names it too).
///
/// History: v1 was the original protocol; v2 appended collector and
/// transport tallies to the (since deleted) stats reply and added the
/// `QueryMetrics` / `Metrics` telemetry frames; v3 added the `Ping` /
/// `Pong` health-check frames, the `QueryParts` / `Parts` federation-merge
/// family, and the `DEGRADED` error code, so a v3 federation tier never
/// half-speaks to a v2 peer that would soft-fail its health checks with
/// `Error { UNSUPPORTED }`; v4 appended the durability tallies to the
/// stats reply (WAL appended records/bytes and recovered records) and
/// added the `UNAVAILABLE` error code for write-ahead-log failures that
/// force a durable server to refuse an ingest; v5: checksum computed in
/// four lanes ([`checksum`]); no payload layout change — the bump makes a
/// v4 peer fail as `UnknownVersion` before its payload is read, not as a
/// checksum mismatch; v6: the ingest payload's user and slot columns
/// travel as a base plus narrow offsets instead of full `u64`s; v7
/// deleted the stats pair — every counter travels in `Metrics` — and
/// renumbered the frame types after it, keeping them the dense range
/// `1..=19`. The health-check pair (16, 17) was later retired without a
/// bump: no payload layout changed, and those two types are now refused
/// as unknown, like any unassigned type.
pub const WIRE_VERSION: u8 = 7;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Default upper bound on payload size a peer will read, and the bound the
/// log scan holds every logged frame to (16 MiB — one ingest frame of
/// ~700k reports at full-width ids; far above anything the fleet sends,
/// far below an allocation a hostile length field could weaponize).
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 24;
/// Frame type of an ingest frame — the wire's, and the log's record of an
/// appended payload.
pub const INGEST: u8 = 1;
/// Frame type of the log's empty seal: a segment's clean-shutdown mark, a
/// checkpoint's last frame. Outside the wire's frame types, which grow up
/// from 1, so the wire never sends one and a wire decoder refuses one.
pub const SEAL: u8 = 0xFF;
/// Frame type of one piece of a checkpoint's state; the pieces concatenate
/// to the state. Outside the wire's frame types, like [`SEAL`].
pub const CHECKPOINT: u8 = 0xFE;

/// Why [`split_frame`] or [`Header::verify`] refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not [`WIRE_VERSION`].
    UnknownVersion(u8),
    /// Reserved header bytes were non-zero.
    BadReserved,
    /// The payload length exceeds the reader's bound.
    Oversized {
        /// Length the header claimed.
        len: u32,
        /// The reader's bound.
        max: u32,
    },
    /// The payload checksum did not match.
    BadChecksum,
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            EnvelopeError::UnknownVersion(v) => write!(f, "unknown wire version {v}"),
            EnvelopeError::BadReserved => f.write_str("reserved header bytes not zero"),
            EnvelopeError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds bound {max}")
            }
            EnvelopeError::BadChecksum => f.write_str("payload checksum mismatch"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// A parsed frame header (magic/version/reserved already validated).
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Raw frame-type byte, validated by whoever reads the payload: the
    /// wire against its known types, the log scan against the file's. The
    /// length prefix lets a reader skip any payload it does not parse.
    pub frame_type: u8,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Expected payload checksum.
    pub checksum: u32,
}

impl Header {
    /// Parses and validates the fixed 16-byte header.
    ///
    /// # Errors
    /// [`EnvelopeError::BadMagic`] / [`EnvelopeError::UnknownVersion`] /
    /// [`EnvelopeError::BadReserved`].
    pub fn parse(bytes: &[u8; HEADER_LEN]) -> Result<Self, EnvelopeError> {
        if bytes[0..4] != MAGIC {
            return Err(EnvelopeError::BadMagic([
                bytes[0], bytes[1], bytes[2], bytes[3],
            ]));
        }
        if bytes[4] != WIRE_VERSION {
            return Err(EnvelopeError::UnknownVersion(bytes[4]));
        }
        if bytes[6] != 0 || bytes[7] != 0 {
            return Err(EnvelopeError::BadReserved);
        }
        Ok(Self {
            frame_type: bytes[5],
            payload_len: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            checksum: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
        })
    }

    /// Verifies `payload` against the header's checksum.
    ///
    /// # Errors
    /// [`EnvelopeError::BadChecksum`].
    pub fn verify(&self, payload: &[u8]) -> Result<(), EnvelopeError> {
        if checksum(payload) != self.checksum {
            return Err(EnvelopeError::BadChecksum);
        }
        Ok(())
    }
}

/// The frame at the front of `bytes` — header and unverified payload — or,
/// while `bytes` holds less than the whole frame, `Err` of the length it
/// needs: the whole frame's once the header is there, [`HEADER_LEN`] before.
///
/// # Errors
/// What [`Header::parse`] refuses, or [`EnvelopeError::Oversized`] past
/// `max_payload`, as soon as the header is there.
pub fn split_frame(
    bytes: &[u8],
    max_payload: u32,
) -> Result<Result<(Header, &[u8]), usize>, EnvelopeError> {
    let Some(head) = bytes.first_chunk() else {
        return Ok(Err(HEADER_LEN));
    };
    let header = Header::parse(head)?;
    if header.payload_len > max_payload {
        let (len, max) = (header.payload_len, max_payload);
        return Err(EnvelopeError::Oversized { len, max });
    }
    let frame_len = HEADER_LEN + header.payload_len as usize;
    let payload = bytes.get(HEADER_LEN..frame_len).ok_or(frame_len);
    Ok(payload.map(|payload| (header, payload)))
}

/// Where a socket's reader ([`FrameReader::default`]) starts.
const STREAM_READ_BYTES: usize = 256 << 10;

/// The one frame reader, for sockets and log files alike: frames are split
/// off the front of one buffer, refilled by reads of whatever fits. The
/// buffer is allocated at the first read and grows only while one frame
/// fills it, doubling but never past that frame's length: a claim costs at
/// most twice what arrived, the buffer at most its start or the largest
/// frame. After an error, [`Self::clear`] it before reading another stream.
#[derive(Debug)]
pub struct FrameReader {
    /// Unread bytes are `buf[start..end]`; `initial` sizes the first read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    initial: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new(STREAM_READ_BYTES)
    }
}

impl FrameReader {
    /// A reader whose buffer starts at `initial` bytes (at least one).
    pub(crate) fn new(initial: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            end: 0,
            initial: initial.max(1),
        }
    }

    /// Drops the buffered bytes, so the next read starts a new stream.
    pub fn clear(&mut self) {
        (self.start, self.end) = (0, 0);
    }

    /// The next frame from `src` — header (length bounded by
    /// [`DEFAULT_MAX_PAYLOAD`]) and payload, lent until the next call and
    /// not yet verified — or `None` at a clean end between frames. A read
    /// timeout asks `stop`, so a socket needs one installed to stop.
    ///
    /// # Errors
    /// `InvalidData` for a header [`split_frame`] refuses, `UnexpectedEof`
    /// for an end inside a frame, `Interrupted` once `stop` says so, or
    /// `src`'s own error.
    pub fn next(
        &mut self,
        src: &mut impl Read,
        stop: impl Fn() -> bool,
    ) -> io::Result<Option<(Header, &[u8])>> {
        loop {
            let needed = match split_frame(&self.buf[self.start..self.end], DEFAULT_MAX_PAYLOAD) {
                Ok(Ok((header, payload))) => {
                    let at = self.start + HEADER_LEN;
                    self.start = at + payload.len();
                    return Ok(Some((header, &self.buf[at..self.start])));
                }
                Ok(Err(needed)) => needed,
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e)),
            };
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            if self.end == self.buf.len() {
                // The first read, or a frame needing more than the buffer.
                let grown = (2 * self.end).min(needed).max(self.initial);
                self.buf.reserve_exact(grown - self.end);
                self.buf.resize(grown, 0);
            }
            match src.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(None),
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if !matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                    return Err(e)
                }
                Err(_) if stop() => return Err(io::Error::new(Interrupted, "shutting down")),
                Err(_) => {}
            }
        }
    }
}

/// Writes one frame to `buf` — header, payload (via `write_payload`), then
/// the backpatched length + checksum — the single definition of the header
/// layout shared by every wire encoder and the log's appends. Only extends
/// `buf`: a caller that reuses it allocates nothing once capacity is warm.
pub fn envelope(buf: &mut Vec<u8>, frame_type: u8, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let header_at = buf.len();
    buf.extend_from_slice(&MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(frame_type);
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&[0; 8]); // length + checksum backpatched below
    let payload_at = buf.len();
    write_payload(buf);
    let payload_len =
        u32::try_from(buf.len() - payload_at).expect("payload exceeds u32::MAX bytes");
    let sum = checksum(&buf[payload_at..]);
    buf[header_at + 8..header_at + 12].copy_from_slice(&payload_len.to_le_bytes());
    buf[header_at + 12..header_at + 16].copy_from_slice(&sum.to_le_bytes());
}

/// Odd multiplier of the checksum step.
const K: u64 = 0x9E37_79B9_7F4A_7C15;
/// Starting state before the length is mixed in.
const SEED: u64 = 0x243F_6A88_85A3_08D3;
/// Per-lane start constants (the hex digits of π after [`SEED`]'s).
const LANE_KEYS: [u64; 4] = [
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
    0x4528_21E6_38D0_1377,
];

/// The checksum step: xor the word in, multiply, xorshift. A bijection of
/// `h` for a fixed `word` and of `word` for a fixed `h`.
#[inline(always)]
fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(K);
    h ^ (h >> 29)
}

/// The one checksum behind every frame payload, on the wire and in the
/// log (`ldp_server::wire::checksum` re-exports it): a multiply–xor word
/// hash run in four independent lanes and folded to 32 bits.
///
/// Word *k* of every 32-byte block goes through lane *k*'s step; the lanes
/// start from the length-mixed seed xor a per-lane constant. The four lane
/// states are then folded together with the same step, the tail under 32
/// bytes is fed in one 8-byte word at a time (the last word zero-padded),
/// and the 64-bit state is folded to 32 bits.
///
/// Not cryptographic: it catches torn writes, truncation, bit rot, swapped
/// words and desynchronized framing. Because the step is a bijection in
/// both arguments, any change confined to one 8-byte word — every
/// single-bit flip — changes the 64-bit state; the fold to 32 bits leaves
/// a miss near 2⁻³² for that and for any other accidental damage.
///
/// Four lanes because one chain runs at the multiply's latency, not the
/// core's throughput: on this 2-vCPU guest, over 8,192-row ingest payloads,
/// a single serial chain hashed ~3.4 GB/s and four lanes ~9.6 GB/s (eight
/// were no faster). The lane count is part of the byte format — the wire
/// version (v5 on) and the log directory's format stamp (format 2 on)
/// both stand for it.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u32 {
    let seed = SEED ^ (bytes.len() as u64).wrapping_mul(K);
    let mut lanes = LANE_KEYS.map(|key| seed ^ key);
    let (blocks, tail) = bytes.as_chunks::<32>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut h = lanes[1..].iter().fold(lanes[0], |h, &lane| mix(h, lane));
    let (words, last) = tail.as_chunks::<8>();
    for word in words {
        h = mix(h, u64::from_le_bytes(*word));
    }
    if !last.is_empty() {
        let mut buf = [0u8; 8];
        buf[..last.len()].copy_from_slice(last);
        h = mix(h, u64::from_le_bytes(buf));
    }
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `len` bytes of a fixed pattern whose adjacent 8-byte words differ.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(29))
            .collect()
    }

    /// A full-width ingest-shaped buffer of `rows` rows, laid out as wire
    /// v5 wrote one: `[rejected u64][count u32]` then the user, slot and
    /// value columns back to back, 8 bytes per row each. Only its sum is
    /// pinned, so it stays the same bytes across ingest layout changes.
    fn ingest_payload(rows: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 24 * rows as usize);
        out.extend_from_slice(&3u64.to_le_bytes());
        out.extend_from_slice(&rows.to_le_bytes());
        for row in 0..u64::from(rows) {
            out.extend_from_slice(&(row * 7919 % 10_000).to_le_bytes());
        }
        for row in 0..u64::from(rows) {
            out.extend_from_slice(&(row / 64).to_le_bytes());
        }
        for row in 0..rows {
            let value = f64::from(row % 1000) / 1000.0;
            out.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        out
    }

    /// These pin the checksum shared by the wire (v5 on) and the log
    /// (format 2 on), and the frames the log writes (format 4 on for
    /// segments, format 5 on for checkpoints): a refactor that changes one
    /// bit of any sum or header fails here, not in somebody's data
    /// directory.
    #[test]
    fn known_answers_pin_the_format() {
        let answers: [(usize, u32); 11] = [
            (0, 0xFAE7_3ABA),
            (1, 0xBFC6_5BCC),
            (7, 0x3DF6_CF36),
            (8, 0x2BFC_9BF9),
            (31, 0x5455_9377),
            (32, 0xE300_4356),
            (33, 0xD673_2871),
            (63, 0x197A_F91C),
            (64, 0x9305_C08B),
            (65, 0x70D7_CA83),
            (100, 0xADBD_A40B),
        ];
        for (len, sum) in answers {
            assert_eq!(checksum(&pattern(len)), sum, "length {len}");
        }
        let payload = ingest_payload(8192);
        assert_eq!(payload.len(), 12 + 24 * 8192);
        assert_eq!(checksum(&payload), 0x6648_41D1);

        // One whole logged ingest frame, the seal, and one checkpoint
        // piece, byte for byte.
        let mut frames = Vec::new();
        logged(INGEST, &pattern(20), &mut frames);
        logged(SEAL, b"", &mut frames);
        logged(CHECKPOINT, &pattern(20), &mut frames);
        assert_eq!(frames.len(), 3 * HEADER_LEN + 40);
        let mut expected = b"LDPW\x07\x01\0\0".to_vec();
        expected.extend_from_slice(&20u32.to_le_bytes());
        expected.extend_from_slice(&0x6FD3_2E88u32.to_le_bytes());
        expected.extend_from_slice(&pattern(20));
        expected.extend_from_slice(b"LDPW\x07\xFF\0\0");
        expected.extend_from_slice(&0u32.to_le_bytes());
        expected.extend_from_slice(&0xFAE7_3ABAu32.to_le_bytes());
        expected.extend_from_slice(b"LDPW\x07\xFE\0\0");
        expected.extend_from_slice(&20u32.to_le_bytes());
        expected.extend_from_slice(&0x6FD3_2E88u32.to_le_bytes());
        expected.extend_from_slice(&pattern(20));
        assert_eq!(frames, expected);
    }

    /// Every length from empty through four blocks and a tail, so the lane
    /// loop, the fold, the whole-word tail and the padded last word are
    /// all reached: every single-bit flip, every swap of two different
    /// adjacent 8-byte words (at any offset) and one appended zero byte
    /// each change the sum, and a frame carrying the bytes refuses every
    /// cut and every bit flip.
    #[test]
    fn damage_is_detected_at_every_length() {
        let data = pattern(130);
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let sum = checksum(bytes);
            for byte in 0..len {
                for bit in 0..8 {
                    let mut flipped = bytes.to_vec();
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(checksum(&flipped), sum, "len {len}: flip {byte}:{bit}");
                }
            }
            for at in 0..len.saturating_sub(15) {
                let (a, b) = (&bytes[at..at + 8], &bytes[at + 8..at + 16]);
                assert_ne!(a, b, "the pattern's adjacent words differ");
                let mut swapped = bytes.to_vec();
                swapped[at..at + 8].copy_from_slice(b);
                swapped[at + 8..at + 16].copy_from_slice(a);
                assert_ne!(checksum(&swapped), sum, "len {len}: swap at {at}");
            }
            let mut longer = bytes.to_vec();
            longer.push(0);
            assert_ne!(checksum(&longer), sum, "len {len}: zero byte appended");

            // The same bytes as a logged frame: every cut — through the
            // header, its length word or the payload — is short of a
            // frame, and no bit flip anywhere decodes as the original.
            let mut logged_frame = Vec::new();
            logged(INGEST, bytes, &mut logged_frame);
            assert_eq!(
                frame(&logged_frame),
                Some((INGEST, bytes, HEADER_LEN + len))
            );
            for cut in 0..logged_frame.len() {
                assert_eq!(frame(&logged_frame[..cut]), None, "len {len}: cut at {cut}");
            }
            for byte in 0..logged_frame.len() {
                for bit in 0..8 {
                    let mut flipped = logged_frame.clone();
                    flipped[byte] ^= 1 << bit;
                    let decoded = frame(&flipped).map(|(kind, payload, _)| (kind, payload));
                    assert_ne!(
                        decoded,
                        Some((INGEST, bytes)),
                        "len {len}: flip {byte}:{bit}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn replacing_one_word_changes_the_sum(
            bytes in proptest::collection::vec(any::<u8>(), 8..4097),
            at in any::<u64>(),
            word in any::<u64>(),
        ) {
            let at = 8 * (at % (bytes.len() / 8) as u64) as usize;
            let mut changed = bytes.clone();
            changed[at..at + 8].copy_from_slice(&word.to_le_bytes());
            if changed != bytes {
                prop_assert_ne!(checksum(&changed), checksum(&bytes), "word at {}", at);
            }
        }
    }

    /// The frame heading `buf` as the log scan reads it: its type, payload
    /// and encoded length, or `None` when `buf` does not start with a
    /// whole frame whose header parses and whose payload verifies.
    fn frame(buf: &[u8]) -> Option<(u8, &[u8], usize)> {
        let (header, payload) = split_frame(buf, DEFAULT_MAX_PAYLOAD).ok()?.ok()?;
        header.verify(payload).ok()?;
        Some((header.frame_type, payload, HEADER_LEN + payload.len()))
    }

    fn logged(frame_type: u8, payload: &[u8], out: &mut Vec<u8>) {
        envelope(out, frame_type, |buf| buf.extend_from_slice(payload));
    }

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        logged(INGEST, b"hello", &mut buf);
        logged(SEAL, b"", &mut buf);
        let (kind, payload, used) = frame(&buf).unwrap();
        assert_eq!((kind, payload), (INGEST, b"hello".as_slice()));
        assert_eq!(used, HEADER_LEN + 5);
        let (kind, payload, used2) = frame(&buf[used..]).unwrap();
        assert_eq!((kind, payload), (SEAL, b"".as_slice()));
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn torn_tail_detected() {
        let mut buf = Vec::new();
        logged(INGEST, b"payload-bytes", &mut buf);
        for cut in 1..buf.len() {
            assert!(
                frame(&buf[..cut]).is_none(),
                "cut at {cut} decoded as valid"
            );
        }
    }

    #[test]
    fn every_bit_flip_detected() {
        let mut buf = Vec::new();
        logged(INGEST, b"some payload", &mut buf);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut flipped = buf.clone();
                flipped[byte] ^= 1 << bit;
                // A flip in the length word can declare a longer frame than
                // the buffer holds, and one in the type byte leaves a whole
                // frame of another type (which the log scan refuses): what
                // decodes must not be the original.
                if let Some((kind, payload, _)) = frame(&flipped) {
                    assert!(
                        kind != INGEST || payload != b"some payload",
                        "flip at {byte}:{bit} undetected"
                    );
                }
            }
        }
    }

    /// Hands out at most `step` bytes a read, then `tail` once it is empty.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        step: usize,
        tail: Option<ErrorKind>,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.bytes.len() {
                return self.tail.map_or(Ok(0), |kind| Err(kind.into()));
            }
            let n = buf.len().min(self.step).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn trickle(bytes: Vec<u8>, step: usize) -> Trickle {
        Trickle {
            bytes,
            pos: 0,
            step,
            tail: None,
        }
    }

    #[test]
    fn a_reader_yields_every_frame_whatever_the_reads_and_its_buffer() {
        let payloads: Vec<Vec<u8>> = [3, 0, 100, 1, 40].map(pattern).to_vec();
        let mut bytes = Vec::new();
        for payload in &payloads {
            logged(INGEST, payload, &mut bytes);
        }
        for (initial, step) in [(1, 1), (7, 5), (19, 19), (24, 1000), (1 << 20, 3)] {
            let (mut reader, mut src) = (FrameReader::new(initial), trickle(bytes.clone(), step));
            for payload in &payloads {
                let (header, got) = reader.next(&mut src, || false).unwrap().unwrap();
                assert_eq!((header.frame_type, got), (INGEST, &payload[..]));
                header.verify(got).unwrap();
            }
            assert!(reader.next(&mut src, || false).unwrap().is_none());
            assert!(
                reader.buf.capacity() <= initial.max(HEADER_LEN + 100),
                "initial {initial}: grew to {}",
                reader.buf.capacity()
            );
        }
    }

    /// A header claiming more than the bound is refused before the buffer
    /// grows past its start (or the header), and one claiming the bound
    /// then stopping after 1 KiB costs at most twice what arrived.
    #[test]
    fn a_claimed_length_costs_the_reader_only_what_arrived() {
        let mut claim = Vec::new();
        logged(INGEST, b"", &mut claim);
        for initial in [1, 4, HEADER_LEN, 64, 256 << 10] {
            let cap = |reader: &FrameReader| reader.buf.capacity();
            claim[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut reader = FrameReader::new(initial);
            let refused = reader
                .next(&mut trickle(claim.clone(), 3), || false)
                .unwrap_err();
            assert_eq!(refused.kind(), ErrorKind::InvalidData);
            let message = format!(
                "payload length {} exceeds bound {DEFAULT_MAX_PAYLOAD}",
                u32::MAX
            );
            assert_eq!(refused.to_string(), message);
            assert!(
                cap(&reader) <= initial.max(HEADER_LEN),
                "initial {initial}: {}",
                cap(&reader)
            );

            claim[8..12].copy_from_slice(&DEFAULT_MAX_PAYLOAD.to_le_bytes());
            let mut stalled = claim.clone();
            stalled.extend_from_slice(&[0xA5; 1024]);
            let mut reader = FrameReader::new(initial);
            let cut = reader
                .next(&mut trickle(stalled, 100), || false)
                .unwrap_err();
            assert_eq!(cut.kind(), ErrorKind::UnexpectedEof);
            let arrived = HEADER_LEN + 1024;
            assert!(
                cap(&reader) <= initial.max(2 * arrived),
                "initial {initial}: {}",
                cap(&reader)
            );
        }
    }

    #[test]
    fn a_timed_out_read_asks_stop_and_a_cleared_reader_starts_afresh() {
        let mut bytes = Vec::new();
        logged(INGEST, b"whole", &mut bytes);
        logged(INGEST, b"half", &mut bytes);
        bytes.truncate(bytes.len() - 2);
        let mut src = trickle(bytes, 64);
        src.tail = Some(ErrorKind::WouldBlock);
        let mut reader = FrameReader::new(64);
        let asked = std::cell::Cell::new(0);
        let (_, payload) = reader.next(&mut src, || false).unwrap().unwrap();
        assert_eq!(payload, b"whole");
        let stopped = reader
            .next(&mut src, || {
                asked.set(asked.get() + 1);
                asked.get() == 3
            })
            .unwrap_err();
        assert_eq!((stopped.kind(), asked.get()), (ErrorKind::Interrupted, 3));

        reader.clear();
        let mut next = Vec::new();
        logged(SEAL, b"", &mut next);
        let (header, payload) = reader.next(&mut &next[..], || false).unwrap().unwrap();
        assert_eq!((header.frame_type, payload), (SEAL, &b""[..]));
    }
}
