//! Checksummed WAL record codec.
//!
//! Every segment is a concatenation of records:
//!
//! ```text
//! [len: u32 LE] [sum: u32 LE] [body: len bytes]
//!     body = [seq: u64 LE] [kind: u8] [payload: len - 9 bytes]
//! ```
//!
//! `sum` ([`checksum`]) covers the whole body, so a torn write (short
//! body), a torn length word, or any bit flip inside the body is detected.
//! `seq` is globally monotone across segments; `kind` distinguishes
//! replayable ingest payloads from the clean-shutdown seal marker. Decoding
//! is strictly stop-at-first-bad-record: a scanner never resynchronizes
//! past damage, because bytes after a bad record have unknowable framing.

use std::fmt;

/// Fixed bytes before the record body: `len` + `sum`.
pub const RECORD_HEADER_LEN: usize = 8;
/// Fixed body bytes before the payload: `seq` + `kind`.
pub const RECORD_BODY_PREFIX: usize = 9;
/// Upper bound on a record body; anything larger is treated as corruption.
/// Comfortably above the wire codec's maximum ingest payload (16 MiB).
pub const MAX_RECORD_BODY: usize = 64 << 20;

/// What a record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A columnar ingest frame payload, byte-for-byte as received off the
    /// wire (replayed through the normal ingest path on recovery).
    Ingest,
    /// A clean-shutdown seal: everything before it was checkpointed and the
    /// process exited gracefully. Carries no payload.
    Seal,
}

impl RecordKind {
    fn to_u8(self) -> u8 {
        match self {
            RecordKind::Ingest => 1,
            RecordKind::Seal => 2,
        }
    }

    fn from_u8(raw: u8) -> Option<Self> {
        match raw {
            1 => Some(RecordKind::Ingest),
            2 => Some(RecordKind::Seal),
            _ => None,
        }
    }
}

/// A decoded record borrowing its payload from the segment buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Globally monotone sequence number.
    pub seq: u64,
    /// Record kind.
    pub kind: RecordKind,
    /// Opaque payload (empty for seals).
    pub payload: &'a [u8],
}

/// Why a scan stopped before consuming the whole buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStop {
    /// Fewer bytes than a record header, or fewer than the declared body —
    /// the classic torn tail of an interrupted append.
    Truncated,
    /// The declared length is impossible (below the body prefix or above
    /// [`MAX_RECORD_BODY`]).
    BadLength,
    /// The body checksum did not match (bit flip or torn body).
    BadChecksum,
    /// The kind byte is not a known record kind.
    BadKind,
}

impl fmt::Display for ScanStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            ScanStop::Truncated => "truncated record",
            ScanStop::BadLength => "impossible record length",
            ScanStop::BadChecksum => "record checksum mismatch",
            ScanStop::BadKind => "unknown record kind",
        };
        f.write_str(what)
    }
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

/// The one checksum behind WAL records, checkpoints and wire frame
/// payloads (`ldp_server::wire::checksum` re-exports it): a multiply–xor
/// word hash run in four independent lanes and folded to 32 bits.
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

/// Append one encoded record to `out`. Only extends `out`; steady-state
/// callers reuse the buffer so this never allocates once capacity is warm.
pub fn encode_record(seq: u64, kind: RecordKind, payload: &[u8], out: &mut Vec<u8>) {
    let body_len = RECORD_BODY_PREFIX + payload.len();
    assert!(body_len <= MAX_RECORD_BODY, "record payload too large");
    let start = out.len();
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // sum backpatched below
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(kind.to_u8());
    out.extend_from_slice(payload);
    let sum = checksum(&out[start + RECORD_HEADER_LEN..]);
    out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Total encoded size of a record with a `payload_len`-byte payload.
#[must_use]
pub fn encoded_len(payload_len: usize) -> usize {
    RECORD_HEADER_LEN + RECORD_BODY_PREFIX + payload_len
}

/// Decode the record starting at `buf[0]`.
///
/// Returns `Ok(None)` when `buf` is empty (clean end of segment),
/// `Ok(Some((record, consumed)))` on success, and `Err` when the head of
/// `buf` is not a whole valid record.
pub fn decode_record(buf: &[u8]) -> Result<Option<(Record<'_>, usize)>, ScanStop> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < RECORD_HEADER_LEN {
        return Err(ScanStop::Truncated);
    }
    let body_len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    if !(RECORD_BODY_PREFIX..=MAX_RECORD_BODY).contains(&body_len) {
        return Err(ScanStop::BadLength);
    }
    let expect = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let Some(body) = buf.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + body_len) else {
        return Err(ScanStop::Truncated);
    };
    if checksum(body) != expect {
        return Err(ScanStop::BadChecksum);
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    let Some(kind) = RecordKind::from_u8(body[8]) else {
        return Err(ScanStop::BadKind);
    };
    let record = Record {
        seq,
        kind,
        payload: &body[RECORD_BODY_PREFIX..],
    };
    Ok(Some((record, RECORD_HEADER_LEN + body_len)))
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
    /// (format 2 on): a refactor that changes one bit of any sum fails
    /// here, not in somebody's data directory.
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
    }

    /// Every length from empty through four blocks and a tail, so the lane
    /// loop, the fold, the whole-word tail and the padded last word are
    /// all reached: every single-bit flip, every swap of two different
    /// adjacent 8-byte words (at any offset) and one appended zero byte
    /// each change the sum.
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

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        encode_record(7, RecordKind::Ingest, b"hello", &mut buf);
        encode_record(8, RecordKind::Seal, b"", &mut buf);
        let (first, used) = decode_record(&buf).unwrap().unwrap();
        assert_eq!(first.seq, 7);
        assert_eq!(first.kind, RecordKind::Ingest);
        assert_eq!(first.payload, b"hello");
        assert_eq!(used, encoded_len(5));
        let (second, used2) = decode_record(&buf[used..]).unwrap().unwrap();
        assert_eq!(second.seq, 8);
        assert_eq!(second.kind, RecordKind::Seal);
        assert!(second.payload.is_empty());
        assert!(decode_record(&buf[used + used2..]).unwrap().is_none());
    }

    #[test]
    fn torn_tail_detected() {
        let mut buf = Vec::new();
        encode_record(1, RecordKind::Ingest, b"payload-bytes", &mut buf);
        for cut in 1..buf.len() {
            let torn = &buf[..cut];
            assert!(
                decode_record(torn).is_err(),
                "cut at {cut} decoded as valid"
            );
        }
    }

    #[test]
    fn every_bit_flip_detected() {
        let mut buf = Vec::new();
        encode_record(42, RecordKind::Ingest, b"some payload", &mut buf);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut flipped = buf.clone();
                flipped[byte] ^= 1 << bit;
                let bad = match decode_record(&flipped) {
                    Err(_) => true,
                    // A flip in the length word can declare a longer record
                    // than the buffer holds — that surfaces as Truncated,
                    // covered by Err. A valid decode must not match.
                    Ok(Some((rec, _))) => {
                        rec.seq != 42
                            || rec.kind != RecordKind::Ingest
                            || rec.payload != b"some payload"
                    }
                    Ok(None) => false,
                };
                assert!(bad, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
