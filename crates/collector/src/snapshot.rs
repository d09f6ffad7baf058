//! Merged, immutable query views over the collector's shard state.
//!
//! Every tier assembles its answer the same way: each contributor — a
//! shard under its lock, a downstream collector over the wire — copies its
//! state out as one [`SnapshotPart`], and [`MergedParts::merge`] folds the
//! parts into the aggregate the query verbs read. [`CollectorSnapshot`],
//! the live [`crate::LiveView`] and the router's federated answer all hold
//! a [`MergedParts`] built by that one function, so they cannot drift in
//! anchoring, windowed-query or summation-order semantics.

use crate::accumulator::{ShardAccumulator, SlotStats};
use std::ops::{Deref, Range};

/// A dense per-slot stats table anchored at a start slot, plus the frozen
/// aggregate of everything folded in below it — the slot-query core of
/// every merged view.
#[derive(Debug, Clone, Default)]
pub struct SlotTable {
    /// Global slot index of `slots[0]`.
    base: u64,
    slots: Vec<SlotStats>,
    /// Aggregate over every slot below `base` (expired under retention).
    frozen: SlotStats,
}

impl SlotTable {
    /// Builds a table from its parts (`slots[i]` covers global slot
    /// `base + i`).
    #[must_use]
    pub fn new(base: u64, slots: Vec<SlotStats>, frozen: SlotStats) -> Self {
        Self {
            base,
            slots,
            frozen,
        }
    }

    /// Global slot index of the first slot the table carries.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.base
    }

    /// Number of slots the table carries.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The per-slot stats, dense from [`Self::start`].
    #[must_use]
    pub fn slots(&self) -> &[SlotStats] {
        &self.slots
    }

    /// Aggregate over every slot below [`Self::start`] (empty unless a
    /// bounded retention policy has expired slots).
    #[must_use]
    pub fn frozen(&self) -> &SlotStats {
        &self.frozen
    }

    /// Stats for one global slot, or `None` outside the carried range.
    #[must_use]
    pub fn slot_stats(&self, slot: u64) -> Option<&SlotStats> {
        let i = usize::try_from(slot.checked_sub(self.base)?).ok()?;
        self.slots.get(i)
    }

    /// Crowd mean estimate for one slot (`None` if nobody reported it or
    /// the slot has expired out of the retained range) — O(1).
    #[must_use]
    pub fn slot_mean(&self, slot: usize) -> Option<f64> {
        self.slot_stats(slot as u64).and_then(SlotStats::mean)
    }

    /// Crowd variance estimate for one slot — O(1).
    #[must_use]
    pub fn slot_variance(&self, slot: usize) -> Option<f64> {
        self.slot_stats(slot as u64).and_then(SlotStats::variance)
    }

    /// Windowed subsequence mean: the average over `range` of the per-slot
    /// crowd means — the collector-side estimate of the population's
    /// average subsequence mean `M̂(i,j)`, O(window). When every user
    /// reports every slot of the range this equals the average of the
    /// per-user means the offline batch path computes, up to
    /// floating-point summation order.
    ///
    /// Returns `None` if any slot in the range has no reports or has
    /// expired out of the retained range.
    #[must_use]
    pub fn windowed_mean(&self, range: Range<usize>) -> Option<f64> {
        if range.is_empty() {
            return None;
        }
        let len = range.len();
        let mut sum = 0.0;
        for slot in range {
            sum += self.slot_mean(slot)?;
        }
        Some(sum / len as f64)
    }

    /// Folds one part's slots in. Slots below this table's start land in
    /// the frozen aggregate; the table must already reach past the part's
    /// last slot.
    fn merge_from(&mut self, start: u64, slots: &[SlotStats], frozen: &SlotStats) {
        self.frozen.merge(frozen);
        for (i, s) in slots.iter().enumerate() {
            let global = start + i as u64;
            if global < self.base {
                self.frozen.merge(s);
            } else {
                self.slots[(global - self.base) as usize].merge(s);
            }
        }
    }
}

/// One contributor's share of a merge: what a shard copies out under its
/// lock ([`ShardAccumulator::part`]) and, as the wire `Parts` frame, what
/// a downstream collector serves to a router.
///
/// `slots[i]` covers global slot `start + i`; `start` may sit above the
/// owner's `retained_base` when the serving query clipped the range. The
/// per-user side travels as two scalars (`user_count`, `user_mean_sum`)
/// rather than rows: shards and downstreams own disjoint user sets, so
/// the scalars add exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotPart {
    /// The owner's own first fully-retained slot.
    pub retained_base: u64,
    /// One past the highest slot the owner covers.
    pub slot_end: u64,
    /// Global slot index of `slots[0]` (the clip start; `>= retained_base`).
    pub start: u64,
    /// Dense per-slot stats from `start`.
    pub slots: Vec<SlotStats>,
    /// Aggregate over every slot below the owner's `retained_base`.
    pub frozen: SlotStats,
    /// Total reports the owner has aggregated (retained + frozen).
    pub total_reports: u64,
    /// Distinct users the owner has seen.
    pub user_count: u64,
    /// Sum of the owner's per-user running means.
    pub user_mean_sum: f64,
}

/// The merge of any number of [`SnapshotPart`]s — the one aggregate every
/// query verb is answered from, at every tier. Slot queries
/// (`slot_mean`, `windowed_mean`, `slot_stats`, `frozen`, …) are the
/// [`SlotTable`]'s, reached by deref.
#[derive(Debug, Clone, Default)]
pub struct MergedParts {
    /// Spans only slots some part carries: anchored at the largest part
    /// `start`, so its size is bounded by the records received.
    table: SlotTable,
    retained_base: u64,
    slot_end: u64,
    total_reports: u64,
    user_count: u64,
    user_mean_sum: f64,
}

impl Deref for MergedParts {
    type Target = SlotTable;

    fn deref(&self) -> &SlotTable {
        &self.table
    }
}

impl MergedParts {
    /// Merges parts in iteration order. Contributors under retention may
    /// have advanced their bases unevenly (each slides on the slots *it*
    /// saw), and a clipped part starts above its base; the merged table
    /// is anchored at the **largest** part `start` — for unclipped parts
    /// the largest `retained_base`, the first slot every contributor
    /// still fully retains — and any slot below that folds into the
    /// frozen prefix, so a slot the merge reports is never missing one
    /// part's contribution. `retained_base` and `slot_end` are carried as
    /// the largest scalar any part claims and never sized from: the table
    /// allocates for slots actually received, nothing for an empty or
    /// scalar-only merge.
    ///
    /// Parts must come from owners of disjoint user sets (the engine's
    /// shard routing, the router's hash routing); the scalar ledgers then
    /// add exactly, and the same parts in the same order give the same
    /// bits.
    #[must_use]
    pub fn merge<'a, I>(parts: I) -> Self
    where
        I: IntoIterator<Item = &'a SnapshotPart>,
        I::IntoIter: Clone,
    {
        let parts = parts.into_iter();
        let mut merged = Self::default();
        let (mut start, mut end) = (0u64, 0u64);
        for p in parts.clone() {
            let covered = p.start + p.slots.len() as u64;
            start = start.max(p.start);
            end = end.max(covered);
            merged.retained_base = merged.retained_base.max(p.retained_base);
            merged.slot_end = merged.slot_end.max(p.slot_end).max(covered);
            merged.total_reports += p.total_reports;
            merged.user_count += p.user_count;
            merged.user_mean_sum += p.user_mean_sum;
        }
        // `end >= start`: the part with the largest start covers up to at
        // least there.
        let span = usize::try_from(end - start).expect("slot range overflows usize");
        merged.table = SlotTable::new(
            start,
            vec![SlotStats::default(); span],
            SlotStats::default(),
        );
        for p in parts {
            merged.table.merge_from(p.start, &p.slots, &p.frozen);
        }
        merged
    }

    /// The merged slot-query core (start, carried stats, frozen prefix).
    #[must_use]
    pub fn table(&self) -> &SlotTable {
        &self.table
    }

    /// Global index of the first slot every part fully retains (0 unless
    /// retention has expired older slots).
    #[must_use]
    pub fn retained_base(&self) -> u64 {
        self.retained_base
    }

    /// One past the highest slot covered by any part.
    #[must_use]
    pub fn slot_end(&self) -> u64 {
        self.slot_end
    }

    /// Total reports across every part (retained + frozen).
    #[must_use]
    pub fn total_reports(&self) -> u64 {
        self.total_reports
    }

    /// Distinct users across every part (exact: user sets are disjoint).
    #[must_use]
    pub fn user_count(&self) -> u64 {
        self.user_count
    }

    /// Sum of per-user running means across every part — the raw mass
    /// behind [`Self::population_mean`], kept so a further merge can add
    /// disjoint contributions exactly before dividing once.
    #[must_use]
    pub fn user_mean_sum(&self) -> f64 {
        self.user_mean_sum
    }

    /// The headline population-mean estimate (average of per-user means):
    /// summed per-user mean mass over the summed user count, `None` when
    /// no user has reported anywhere — O(1).
    #[must_use]
    pub fn population_mean(&self) -> Option<f64> {
        (self.user_count > 0).then(|| self.user_mean_sum / self.user_count as f64)
    }

    /// `range` clipped to the slots the table carries — never inverted,
    /// empty where the two do not overlap.
    #[must_use]
    pub fn clip(&self, range: Range<u64>) -> Range<u64> {
        let end = self.table.base + self.table.slots.len() as u64;
        let start = range.start.max(self.table.base).min(end);
        start..range.end.min(end).max(start)
    }

    /// Re-exports the merged state as a part carrying the slots of
    /// `range` it holds (an empty clip still carries the scalar ledger),
    /// so merges compose: a collector serves its view this way, a router
    /// the merge of its downstreams' parts. [`MergedParts::merge`] over
    /// the re-exported parts of any grouping agrees with a flat merge
    /// (associativity; pinned by proptest).
    #[must_use]
    pub fn part(&self, range: Range<u64>) -> SnapshotPart {
        let span = self.clip(range);
        let at = |slot: u64| (slot - self.table.base) as usize;
        SnapshotPart {
            retained_base: self.retained_base,
            slot_end: self.slot_end,
            start: span.start,
            slots: self.table.slots[at(span.start)..at(span.end)].to_vec(),
            frozen: self.table.frozen,
            total_reports: self.total_reports,
            user_count: self.user_count,
            user_mean_sum: self.user_mean_sum,
        }
    }
}

/// A consistent-per-shard, merged view of the collector at some instant.
///
/// Answers the crowd-level queries of the paper's evaluation:
/// per-slot mean estimates (stream publication), windowed subsequence
/// means (mean estimation), and the distribution of per-user means
/// (crowd-level statistics, Theorem 5). The aggregate queries are the
/// [`MergedParts`]', reached by deref; the per-user rows are what a
/// snapshot adds.
///
/// Under a bounded [`crate::SlotRetention`] policy the snapshot covers the
/// retained slot range `[retained_base, slot_end)`; slots that expired
/// before the snapshot survive only inside [`SlotTable::frozen`], an exact
/// aggregate of everything below the base, so lifetime totals never drift
/// while per-slot queries are bounded to the live window.
#[derive(Debug, Clone, Default)]
pub struct CollectorSnapshot {
    merged: MergedParts,
    /// `(user id, report count, value sum)` ordered by user id.
    users: Vec<(u64, u64, f64)>,
}

impl Deref for CollectorSnapshot {
    type Target = MergedParts;

    fn deref(&self) -> &MergedParts {
        &self.merged
    }
}

impl CollectorSnapshot {
    /// Merges shard states into one view: each shard's
    /// [`ShardAccumulator::part`]s go through [`MergedParts::merge`] in
    /// iteration order, and — shards own disjoint users — the user lists
    /// concatenate.
    ///
    /// Accepts anything dereferencing to [`ShardAccumulator`] — plain
    /// references or mutex guards — and visits each item exactly once,
    /// copying its state out while the guard is held and releasing it
    /// before the next shard is visited.
    #[must_use]
    pub fn merge<I>(shards: I) -> Self
    where
        I: IntoIterator,
        I::Item: Deref<Target = ShardAccumulator>,
    {
        let mut parts: Vec<SnapshotPart> = Vec::new();
        let mut users: Vec<(u64, u64, f64)> = Vec::new();
        for shard in shards {
            parts.push(shard.part());
            for (id, stats) in shard.users() {
                users.push((id, stats.count, stats.sum));
            }
        }
        users.sort_unstable_by_key(|&(id, _, _)| id);
        Self {
            merged: MergedParts::merge(&parts),
            users,
        }
    }

    /// Number of distinct users seen.
    #[must_use]
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Each user's running mean estimate, ordered by user id — the
    /// population-mean distribution of the paper's crowd-level statistics
    /// (the online analogue of
    /// [`ldp_core::crowd::estimated_population_means`]).
    #[must_use]
    pub fn per_user_means(&self) -> Vec<f64> {
        self.users
            .iter()
            .map(|&(_, count, sum)| sum / count as f64)
            .collect()
    }

    /// The average of the per-user means, or `None` when no user has
    /// reported yet (distinguishable from a true zero mean) — recomputed
    /// row by row, so it is the independent check on the incrementally
    /// maintained [`MergedParts::user_mean_sum`] every other tier divides.
    #[must_use]
    pub fn population_mean(&self) -> Option<f64> {
        if self.users.is_empty() {
            return None;
        }
        let means = self.per_user_means();
        Some(means.iter().sum::<f64>() / means.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::SlotRetention;

    fn shard_with(reports: &[(u64, u64, f64)]) -> ShardAccumulator {
        let mut s = ShardAccumulator::new();
        for &(user, slot, value) in reports {
            s.ingest_parts(user, slot, value);
        }
        s
    }

    #[test]
    fn merge_combines_slots_and_users() {
        let a = shard_with(&[(0, 0, 0.2), (0, 1, 0.4)]);
        let b = shard_with(&[(1, 0, 0.6), (1, 1, 0.8)]);
        let snap = CollectorSnapshot::merge(&[a, b]);
        assert_eq!(snap.total_reports(), 4);
        assert_eq!(snap.user_count(), 2);
        assert_eq!(snap.slot_count(), 2);
        assert_eq!(snap.retained_base(), 0);
        assert!((snap.slot_mean(0).unwrap() - 0.4).abs() < 1e-12);
        assert!((snap.slot_mean(1).unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(snap.users.iter().map(|u| u.0).collect::<Vec<_>>(), [0, 1]);
        let means = snap.per_user_means();
        assert!((means[0] - 0.3).abs() < 1e-12);
        assert!((means[1] - 0.7).abs() < 1e-12);
        assert!((snap.population_mean().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_mean_averages_slot_means() {
        let snap = CollectorSnapshot::merge(&[shard_with(&[
            (0, 0, 0.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 0.0),
        ])]);
        assert!((snap.windowed_mean(0..2).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(snap.windowed_mean(0..0), None);
        assert_eq!(snap.windowed_mean(0..5), None, "uncovered slots");
    }

    #[test]
    fn empty_snapshot_is_well_defined() {
        let snap = CollectorSnapshot::merge(&[] as &[ShardAccumulator]);
        assert_eq!(snap.total_reports(), 0);
        assert_eq!(snap.slot_mean(0), None);
        assert_eq!(snap.population_mean(), None, "no users ≠ zero mean");
        assert!(snap.per_user_means().is_empty());
        assert_eq!(snap.retained_base(), 0);
        assert_eq!(snap.slot_end(), 0);
    }

    #[test]
    fn ragged_slot_coverage_merges_to_max() {
        let a = shard_with(&[(0, 9, 0.5)]);
        let b = shard_with(&[(1, 2, 0.25)]);
        let snap = CollectorSnapshot::merge(&[a, b]);
        assert_eq!(snap.slot_count(), 10);
        assert_eq!(snap.slot_mean(5), None);
        assert!((snap.slot_variance(9).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn uneven_shard_bases_anchor_at_the_largest() {
        let mut a = ShardAccumulator::with_retention(SlotRetention::Last(3));
        let mut b = ShardAccumulator::with_retention(SlotRetention::Last(3));
        for slot in 0..10u64 {
            a.ingest_parts(0, slot, 1.0); // base advances to 7
        }
        for slot in 0..6u64 {
            b.ingest_parts(1, slot, 0.0); // base advances to 3
        }
        let snap = CollectorSnapshot::merge(&[a, b]);
        assert_eq!(snap.retained_base(), 7);
        assert_eq!(snap.slot_end(), 10);
        // b's retained slots 3..6 fell below the merged base → frozen.
        assert_eq!(snap.frozen().count, 7 + 6);
        assert_eq!(snap.total_reports(), 16);
        assert_eq!(snap.slot_mean(6), None, "below merged base");
        assert!((snap.slot_mean(7).unwrap() - 1.0).abs() < 1e-12);
    }

    fn part_of(shards: &[ShardAccumulator]) -> SnapshotPart {
        let snap = CollectorSnapshot::merge(shards);
        let user_mean_sum: f64 = snap.per_user_means().iter().sum();
        SnapshotPart {
            retained_base: snap.retained_base(),
            slot_end: snap.slot_end(),
            start: snap.retained_base(),
            slots: snap.slots().to_vec(),
            frozen: *snap.frozen(),
            total_reports: snap.total_reports(),
            user_count: snap.user_count() as u64,
            user_mean_sum,
        }
    }

    #[test]
    fn merge_parts_agrees_with_single_merge() {
        let a = shard_with(&[(0, 0, 0.2), (0, 1, 0.4), (2, 3, 0.9)]);
        let b = shard_with(&[(1, 0, 0.6), (1, 1, 0.8)]);
        let both = CollectorSnapshot::merge(&[a.clone(), b.clone()]);
        let merged = MergedParts::merge([&part_of(&[a]), &part_of(&[b])]);
        assert_eq!(merged.total_reports(), both.total_reports());
        assert_eq!(merged.user_count() as usize, both.user_count());
        assert_eq!(merged.retained_base(), both.retained_base());
        assert_eq!(merged.slot_end(), both.slot_end());
        for slot in 0..both.slot_end() as usize {
            match (merged.slot_mean(slot), both.slot_mean(slot)) {
                (Some(m), Some(s)) => assert!((m - s).abs() < 1e-12),
                (m, s) => assert_eq!(m, s),
            }
        }
        let (pm, ps) = (
            merged.population_mean().unwrap(),
            both.population_mean().unwrap(),
        );
        assert!((pm - ps).abs() < 1e-12);
    }

    #[test]
    fn merge_parts_anchors_at_largest_base_and_conserves_counts() {
        let mut a = ShardAccumulator::with_retention(SlotRetention::Last(3));
        let mut b = ShardAccumulator::with_retention(SlotRetention::Last(3));
        for slot in 0..10u64 {
            a.ingest_parts(0, slot, 1.0);
        }
        for slot in 0..6u64 {
            b.ingest_parts(1, slot, 0.0);
        }
        let merged = MergedParts::merge([&part_of(&[a]), &part_of(&[b])]);
        assert_eq!(merged.retained_base(), 7);
        assert_eq!(merged.slot_end(), 10);
        assert_eq!(merged.frozen().count, 7 + 6);
        assert_eq!(merged.total_reports(), 16);
        assert_eq!(merged.slot_mean(6), None, "below merged base");
        assert!((merged.slot_mean(7).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_parts_is_empty_safe_and_composes() {
        let empty = MergedParts::merge([]);
        assert_eq!(empty.population_mean(), None);
        assert_eq!(empty.total_reports(), 0);
        assert_eq!(empty.slot_end(), 0);

        let a = part_of(&[shard_with(&[(0, 0, 0.25)])]);
        let b = part_of(&[shard_with(&[(1, 2, 0.5)])]);
        let c = part_of(&[shard_with(&[(2, 1, 0.75)])]);
        let flat = MergedParts::merge([&a, &b, &c]);
        let ab = MergedParts::merge([&a, &b]).part(0..u64::MAX);
        let nested = MergedParts::merge([&ab, &c]);
        assert_eq!(nested.total_reports(), flat.total_reports());
        assert_eq!(nested.user_count(), flat.user_count());
        assert_eq!(nested.retained_base(), flat.retained_base());
        assert_eq!(nested.slot_end(), flat.slot_end());
        for slot in 0..flat.slot_end() as usize {
            match (nested.slot_mean(slot), flat.slot_mean(slot)) {
                (Some(m), Some(s)) => assert!((m - s).abs() < 1e-9),
                (m, s) => assert_eq!(m, s),
            }
        }
    }

    /// The wire accepts a zero-record part claiming any `slot_end` (92
    /// bytes); the merge carries the claim as a scalar and sizes its table
    /// from the records it was given, never from the claim.
    #[test]
    fn merge_allocates_for_records_received_not_for_the_claimed_end() {
        let hostile = SnapshotPart {
            slot_end: 1 << 36,
            ..SnapshotPart::default()
        };
        let alone = MergedParts::merge([&hostile]);
        assert_eq!(alone.slot_end(), 1 << 36);
        assert_eq!(alone.slot_count(), 0, "no record, no table");
        assert_eq!(
            alone.part(0..u64::MAX),
            hostile,
            "and it re-exports unchanged"
        );

        let honest = part_of(&[shard_with(&[(0, 0, 0.25), (1, 0, 0.75), (0, 1, 0.5)])]);
        let merged = MergedParts::merge([&hostile, &honest]);
        assert_eq!(merged.slot_end(), 1 << 36);
        assert_eq!(merged.slot_count(), 2, "only the slots a part carries");
        assert_eq!(merged.slot_mean(0), Some(0.5));
        assert_eq!(merged.windowed_mean(0..2), Some(0.5));
        assert_eq!(merged.slot_mean(2), None);
    }

    /// A clipped part starts above its base: the merge anchors at the
    /// largest start, and slots a lower-starting part carries below it
    /// fold into the frozen prefix like slots below the retained base.
    #[test]
    fn merge_anchors_at_the_largest_part_start() {
        let whole = part_of(&[shard_with(&[(0, 0, 0.25), (0, 1, 0.5), (0, 2, 0.75)])]);
        let clipped = MergedParts::merge([&whole]).part(1..3);
        assert_eq!((clipped.start, clipped.slots.len()), (1, 2));
        let merged = MergedParts::merge([&whole, &clipped]);
        assert_eq!(merged.retained_base(), 0, "what the owners retain");
        assert_eq!(merged.table().start(), 1, "what every part carries");
        assert_eq!(merged.slot_end(), 3);
        assert_eq!(merged.frozen().count, 1, "slot 0 of the whole part");
        assert_eq!(merged.slot_stats(1).unwrap().count, 2);
        assert_eq!(merged.slot_mean(0), None);
        assert_eq!(merged.clip(0..9), 1..3);
        assert_eq!(merged.clip(7..9), 3..3, "never inverted");
    }

    #[test]
    fn frozen_plus_retained_counts_conserve_totals() {
        let mut a = ShardAccumulator::with_retention(SlotRetention::Last(4));
        for slot in 0..25u64 {
            a.ingest_parts(slot % 3, slot, 0.5);
        }
        let snap = CollectorSnapshot::merge(&[a]);
        let retained: u64 = snap.slots().iter().map(|s| s.count).sum();
        assert_eq!(snap.frozen().count + retained, snap.total_reports());
    }
}
