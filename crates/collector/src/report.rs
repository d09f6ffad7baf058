//! The ingestion unit: batches of perturbed per-slot reports.
//!
//! [`ReportBatch`] is **columnar** (struct-of-arrays): user ids, slot
//! indices, and values live in three parallel vectors. Ingest walks the
//! columns instead of an array of structs, so the shard routing pass
//! touches only the `users` column and the accumulation pass streams the
//! `values` column cache-line by cache-line — the layout the collector's
//! ~20M+ reports/s hot path is built around.
//!
//! [`ReportColumns`] is the **borrowed** counterpart: the same three
//! columns as slices over storage owned elsewhere (a wire decoder's
//! reusable scratch, a sub-range of a bigger batch). Everything that can
//! ingest an owned batch is generic over [`AsReportColumns`], so the
//! zero-copy wire path feeds shard accumulators without ever
//! materializing a `ReportBatch`.

/// A batch of perturbed reports uploaded together (one RPC / queue
/// message in a real deployment): row `i` says user `users()[i]`
/// published `values()[i]` for time slot `slots()[i]`. The values are
/// already private — the collector never sees ground truth. Batching is
/// what keeps per-report overhead negligible: the collector locks each
/// shard once per batch, not once per report.
///
/// Non-finite values (NaN / ±∞) are rejected at [`push`](Self::push) time
/// and counted in [`rejected_non_finite`](Self::rejected_non_finite) — a
/// single NaN folded into a shard accumulator would poison every mean it
/// ever contributes to, so it must never enter the columns.
#[derive(Debug, Clone, Default)]
pub struct ReportBatch {
    users: Vec<u64>,
    slots: Vec<u64>,
    values: Vec<f64>,
    rejected: u64,
}

impl ReportBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `capacity` reports.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            users: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
            rejected: 0,
        }
    }

    /// Appends one report. Returns `false` (and counts the rejection)
    /// instead of accepting a non-finite value.
    pub fn push(&mut self, user: u64, slot: u64, value: f64) -> bool {
        if !value.is_finite() {
            self.rejected += 1;
            return false;
        }
        self.users.push(user);
        self.slots.push(slot);
        self.values.push(value);
        true
    }

    /// Appends a user's contiguous published subsequence starting at
    /// `start_slot` (the common upload shape for an
    /// [`ldp_core::online::OnlineSession`]): `values[i]` goes to slot
    /// `start_slot + i`, saturating at `u64::MAX` — a stream that runs off
    /// the end of the slot space puts its later rows at `u64::MAX`, which
    /// every collector drops as out of bound, instead of wrapping them
    /// onto slots 0, 1, …. Returns the number of reports accepted.
    pub fn push_stream(&mut self, user: u64, start_slot: u64, values: &[f64]) -> usize {
        self.reserve(values.len());
        let slots = (start_slot..=u64::MAX).chain(std::iter::repeat(u64::MAX));
        let mut accepted = 0;
        for (&value, slot) in values.iter().zip(slots) {
            accepted += usize::from(self.push(user, slot, value));
        }
        accepted
    }

    /// Wraps a user's contiguous published subsequence into a fresh batch
    /// (see [`Self::push_stream`]).
    #[must_use]
    pub fn from_stream(user: u64, start_slot: u64, values: &[f64]) -> Self {
        let mut batch = Self::with_capacity(values.len());
        batch.push_stream(user, start_slot, values);
        batch
    }

    /// Builds a batch directly from parallel columns — the zero-copy
    /// wire-deserialization path. Values are *not* screened here (the
    /// columns may come straight off an untrusted upload);
    /// [`crate::Collector::ingest`] re-screens non-finite values, so a
    /// malicious or buggy client still cannot poison shard accumulators.
    ///
    /// # Panics
    /// Panics if the columns disagree in length.
    #[must_use]
    pub fn from_columns(users: Vec<u64>, slots: Vec<u64>, values: Vec<f64>) -> Self {
        assert!(
            users.len() == slots.len() && slots.len() == values.len(),
            "from_columns: column lengths disagree ({}/{}/{})",
            users.len(),
            slots.len(),
            values.len()
        );
        Self {
            users,
            slots,
            values,
            rejected: 0,
        }
    }

    /// Reserves room for `additional` more reports.
    pub fn reserve(&mut self, additional: usize) {
        self.users.reserve(additional);
        self.slots.reserve(additional);
        self.values.reserve(additional);
    }

    /// Empties the batch (keeping its capacity — the buffer-reuse path of
    /// the fleet drivers) and resets the rejection counter.
    pub fn clear(&mut self) {
        self.users.clear();
        self.slots.clear();
        self.values.clear();
        self.rejected = 0;
    }

    /// Number of reports in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the batch holds no reports.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// How many pushes were rejected for carrying a non-finite value.
    #[must_use]
    pub fn rejected_non_finite(&self) -> u64 {
        self.rejected
    }

    /// The user-id column.
    #[must_use]
    pub fn users(&self) -> &[u64] {
        &self.users
    }

    /// The slot-index column.
    #[must_use]
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// The value column.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A borrowed struct-of-arrays view over report columns — the zero-copy
/// ingestion unit. The columns may live in a wire decoder's reusable
/// scratch, inside a [`ReportBatch`], or anywhere else; the collector
/// ingests them identically (see [`AsReportColumns`]).
///
/// Values are *not* screened at construction (the columns may come
/// straight off an untrusted upload); [`crate::Collector::ingest`]
/// screens non-finite values during its routing pass, so a borrowed view
/// still cannot poison shard accumulators.
#[derive(Debug, Clone, Copy)]
pub struct ReportColumns<'a> {
    users: &'a [u64],
    slots: &'a [u64],
    values: &'a [f64],
}

impl<'a> ReportColumns<'a> {
    /// Wraps three parallel columns.
    ///
    /// # Panics
    /// Panics if the columns disagree in length.
    #[must_use]
    pub fn new(users: &'a [u64], slots: &'a [u64], values: &'a [f64]) -> Self {
        assert!(
            users.len() == slots.len() && slots.len() == values.len(),
            "ReportColumns: column lengths disagree ({}/{}/{})",
            users.len(),
            slots.len(),
            values.len()
        );
        Self {
            users,
            slots,
            values,
        }
    }

    /// Number of reports in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the view holds no reports.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The user-id column.
    #[must_use]
    pub fn users(&self) -> &'a [u64] {
        self.users
    }

    /// The slot-index column.
    #[must_use]
    pub fn slots(&self) -> &'a [u64] {
        self.slots
    }

    /// The value column.
    #[must_use]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }
}

/// Anything the collector can ingest: an owned [`ReportBatch`] or a
/// borrowed [`ReportColumns`] view. [`crate::Collector::ingest`] and
/// [`crate::Collector::ingest_outcome`] are generic over this trait, so
/// the wire path hands over borrowed scratch columns and the in-process
/// path hands over its batch — same routing, same screening, same
/// accumulation code.
pub trait AsReportColumns {
    /// The columns to ingest.
    fn report_columns(&self) -> ReportColumns<'_>;
}

impl AsReportColumns for ReportBatch {
    fn report_columns(&self) -> ReportColumns<'_> {
        ReportColumns {
            users: &self.users,
            slots: &self.slots,
            values: &self.values,
        }
    }
}

impl AsReportColumns for ReportColumns<'_> {
    fn report_columns(&self) -> ReportColumns<'_> {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_stream_numbers_slots_consecutively() {
        let b = ReportBatch::from_stream(7, 100, &[0.1, 0.2, 0.3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.users(), &[7, 7, 7]);
        assert_eq!(b.slots(), &[100, 101, 102]);
        assert_eq!(b.values(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn push_and_collect() {
        let mut b = ReportBatch::new();
        assert!(b.is_empty());
        assert!(b.push(1, 0, 0.5));
        assert_eq!(b.len(), 1);
        assert_eq!(b.users(), &[1]);
        assert_eq!(b.slots(), &[0]);
        assert_eq!(b.values(), &[0.5]);
    }

    #[test]
    fn non_finite_values_are_rejected_and_counted() {
        let mut b = ReportBatch::new();
        assert!(!b.push(1, 0, f64::NAN));
        assert!(!b.push(1, 1, f64::INFINITY));
        assert!(!b.push(1, 2, f64::NEG_INFINITY));
        assert!(b.push(1, 3, 0.25));
        assert_eq!(b.len(), 1);
        assert_eq!(b.rejected_non_finite(), 3);
        assert!(b.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn push_stream_skips_non_finite_slots_only() {
        let mut b = ReportBatch::new();
        let accepted = b.push_stream(9, 10, &[0.1, f64::NAN, 0.3]);
        assert_eq!(accepted, 2);
        assert_eq!(b.slots(), &[10, 12], "finite slots keep their indices");
        assert_eq!(b.rejected_non_finite(), 1);
    }

    #[test]
    fn push_stream_saturates_slots_at_the_end_of_the_slot_space() {
        let top = u64::MAX;
        let b = ReportBatch::from_stream(1, top - 1, &[0.1, 0.2, 0.3]);
        assert_eq!(b.slots(), &[top - 1, top, top]);
        let b = ReportBatch::from_stream(1, top - 1, &[0.1, f64::NAN, 0.3, 0.4]);
        assert_eq!(b.slots(), &[top - 1, top, top]);
        assert_eq!(b.rejected_non_finite(), 1);
    }

    #[test]
    fn report_columns_view_tracks_the_batch() {
        let mut b = ReportBatch::new();
        b.push(1, 0, 0.5);
        b.push(2, 3, 0.75);
        let cols = b.report_columns();
        assert_eq!(cols.len(), 2);
        assert!(!cols.is_empty());
        assert_eq!(cols.users(), b.users());
        assert_eq!(cols.slots(), b.slots());
        assert_eq!(cols.values(), b.values());
        // A view is itself a column source (the generic-ingest identity).
        let again = cols.report_columns();
        assert_eq!(again.slots(), cols.slots());
    }

    #[test]
    #[should_panic(expected = "column lengths disagree")]
    fn mismatched_columns_panic() {
        let _ = ReportColumns::new(&[1, 2], &[0], &[0.5]);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_rejections() {
        let mut b = ReportBatch::with_capacity(8);
        b.push(1, 0, 0.5);
        b.push(2, 1, f64::NAN);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.rejected_non_finite(), 0);
        assert!(b.users.capacity() >= 8);
    }
}
