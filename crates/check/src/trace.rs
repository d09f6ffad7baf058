//! Compact, printable schedule traces.
//!
//! A trace is the full sequence of nondeterministic decisions the scheduler
//! made during one execution: which thread ran at each scheduling point and
//! which waiter a `Condvar::notify_one` woke. Replaying the trace against the
//! same test body deterministically reproduces the interleaving.
//!
//! Wire format: `v1.<len>.<hex>` where `<hex>` is the lowercase-hex encoding
//! of each decision as a LEB128 varint. The format is stable so a trace
//! printed by CI can be pasted into `LDP_CHECK_REPLAY` locally.

use std::fmt;
use std::str::FromStr;

/// A recorded schedule: one `u32` per nondeterministic decision.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    decisions: Vec<u32>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            decisions: Vec::new(),
        }
    }

    pub fn from_decisions(decisions: Vec<u32>) -> Self {
        Trace { decisions }
    }

    pub fn push(&mut self, decision: u32) {
        self.decisions.push(decision);
    }

    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    pub fn decisions(&self) -> &[u32] {
        &self.decisions
    }
}

fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, TraceParseError> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(TraceParseError::Truncated);
        };
        *pos += 1;
        if shift >= 32 || (shift == 28 && (byte & 0x7f) > 0x0f) {
            return Err(TraceParseError::Overflow);
        }
        v |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut bytes = Vec::with_capacity(self.decisions.len() * 2);
        for &d in &self.decisions {
            push_varint(&mut bytes, d);
        }
        write!(f, "v1.{}.", self.decisions.len())?;
        for b in bytes {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Why a trace string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceParseError {
    /// Missing `v1.` prefix or malformed section structure.
    BadFormat,
    /// Declared decision count does not match the payload.
    LengthMismatch,
    /// Non-hex character in the payload.
    BadHex,
    /// Varint ran past the end of the payload.
    Truncated,
    /// Varint encodes a value wider than 32 bits.
    Overflow,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            TraceParseError::BadFormat => "expected `v1.<len>.<hex>`",
            TraceParseError::LengthMismatch => "declared length does not match payload",
            TraceParseError::BadHex => "payload is not lowercase hex",
            TraceParseError::Truncated => "varint truncated",
            TraceParseError::Overflow => "varint exceeds u32",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TraceParseError {}

impl FromStr for Trace {
    type Err = TraceParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s.strip_prefix("v1.").ok_or(TraceParseError::BadFormat)?;
        let (len_str, hex) = rest.split_once('.').ok_or(TraceParseError::BadFormat)?;
        let declared: usize = len_str.parse().map_err(|_| TraceParseError::BadFormat)?;
        if hex.len() % 2 != 0 {
            return Err(TraceParseError::BadHex);
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        let hex_bytes = hex.as_bytes();
        for pair in hex_bytes.chunks_exact(2) {
            let hi = hex_digit(pair[0])?;
            let lo = hex_digit(pair[1])?;
            bytes.push((hi << 4) | lo);
        }
        let mut decisions = Vec::with_capacity(declared);
        let mut pos = 0;
        while pos < bytes.len() {
            decisions.push(read_varint(&bytes, &mut pos)?);
        }
        if decisions.len() != declared {
            return Err(TraceParseError::LengthMismatch);
        }
        Ok(Trace { decisions })
    }
}

fn hex_digit(c: u8) -> Result<u8, TraceParseError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        _ => Err(TraceParseError::BadHex),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple() {
        let t = Trace::from_decisions(vec![0, 1, 2, 127, 128, 300, u32::MAX]);
        let s = t.to_string();
        let back: Trace = s.parse().expect("parse");
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert_eq!(t.to_string(), "v1.0.");
        let back: Trace = "v1.0.".parse().expect("parse");
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!("".parse::<Trace>().is_err());
        assert!("v2.0.".parse::<Trace>().is_err());
        assert!("v1.zz.".parse::<Trace>().is_err());
        assert!("v1.1.".parse::<Trace>().is_err());
        assert!("v1.0.ff".parse::<Trace>().is_err());
        assert!("v1.1.8".parse::<Trace>().is_err());
        assert!("v1.1.XY".parse::<Trace>().is_err());
        // 6-byte varint overflows u32
        assert!("v1.1.ffffffffff7f".parse::<Trace>().is_err());
    }
}
