//! Input generation: everything the system under test receives is made
//! here, from `--seed` alone, before the clock starts.

use ldp_collector::ReportBatch;

/// SplitMix64 — the benchmark's own generator, so inputs do not change
/// when the repository's `rand` shim does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Slots a ring cycles through. Equal to the collector's retention
/// (`SlotRetention::Last(256)`), so the slot table is full and steady for
/// the whole run and no report is ever older than the retained range.
pub const RING_SLOTS: u64 = 256;

/// A ring of pre-generated upload frames, sent round-robin.
#[derive(Debug)]
pub struct Ring {
    pub batches: Vec<ReportBatch>,
    pub frame_rows: usize,
    pub users: u64,
    /// Hash of every column of every batch; identical seeds must print
    /// identical hashes.
    pub hash: u64,
}

impl Ring {
    /// `frames` batches of `frame_rows` reports each: users uniform in
    /// `0..users` (the shape a multi-tenant gateway connection carries),
    /// one slot per frame (`frame index mod RING_SLOTS`), values uniform
    /// in `[0, 1)`.
    pub fn generate(seed: u64, users: u64, frame_rows: usize, frames: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let batches: Vec<ReportBatch> = (0..frames)
            .map(|frame| {
                let slot = frame as u64 % RING_SLOTS;
                let mut batch = ReportBatch::with_capacity(frame_rows);
                for _ in 0..frame_rows {
                    let user = rng.next_u64() % users;
                    batch.push(user, slot, rng.next_unit());
                }
                batch
            })
            .collect();
        let hash = hash_batches(&batches);
        Self {
            batches,
            frame_rows,
            users,
            hash,
        }
    }

    pub fn frames(&self) -> usize {
        self.batches.len()
    }

    pub fn rows(&self) -> u64 {
        (self.batches.len() * self.frame_rows) as u64
    }

    /// The batch for the `n`-th frame sent.
    pub fn frame(&self, n: u64) -> &ReportBatch {
        &self.batches[(n % self.batches.len() as u64) as usize]
    }
}

/// Word-wise multiply–xor hash (the wire checksum's mixing step, kept
/// at 64 bits): fast enough to run over every generated input.
#[derive(Debug, Clone)]
pub struct Hasher64(u64);

impl Default for Hasher64 {
    fn default() -> Self {
        Self(0x243F_6A88_85A3_08D3)
    }
}

impl Hasher64 {
    pub fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash over the three columns of every batch.
pub fn hash_batches(batches: &[ReportBatch]) -> u64 {
    let mut h = Hasher64::default();
    for batch in batches {
        h.mix(batch.len() as u64);
        batch.users().iter().for_each(|&u| h.mix(u));
        batch.slots().iter().for_each(|&s| h.mix(s));
        batch.values().iter().for_each(|&v| h.mix(v.to_bits()));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_ring() {
        let a = Ring::generate(7, 100, 64, 5);
        let b = Ring::generate(7, 100, 64, 5);
        let c = Ring::generate(8, 100, 64, 5);
        assert_eq!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
        assert_eq!(a.rows(), 320);
        assert!(a.batches.iter().all(|b| b.rejected_non_finite() == 0));
        assert!(a.frame(7).users().iter().all(|&u| u < 100));
        assert_eq!(a.frame(7).slots()[0], 2);
    }
}
