//! Per-shard incremental accumulators.
//!
//! A shard owns a disjoint subset of users and aggregates their reports
//! into per-slot moment sums (count / sum / sum-of-squares) plus per-user
//! running sums. Everything is O(1) amortized per report and mergeable, so
//! shards aggregate independently and a snapshot reduces them at query
//! time.
//!
//! Slot state is bounded by a [`SlotRetention`] policy: with
//! `SlotRetention::Last(R)` a shard keeps per-slot stats only for the most
//! recent `R` slots it has seen; older slots fold into a frozen prefix
//! aggregate ([`ShardAccumulator::frozen`]), so memory stays O(R) on an
//! unbounded stream while lifetime totals stay exact. Per-user running
//! sums are O(1) per user regardless of stream length, so they are not
//! subject to retention.

use crate::snapshot::SnapshotPart;
use std::collections::VecDeque;

/// How long a shard keeps per-slot statistics queryable.
///
/// Retention bounds *slot* state only: per-user running sums and the
/// frozen prefix totals remain exact forever, so lifetime aggregates
/// (total reports, population means) are unaffected by expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotRetention {
    /// Keep every slot ever reported (the historical behaviour; memory
    /// grows linearly with stream length).
    #[default]
    Unbounded,
    /// Keep only the most recent `R` slots; anything older folds into the
    /// frozen prefix. For the paper's w-event setting choose `R ≥ w` so
    /// every query the privacy guarantee covers stays answerable.
    Last(u64),
}

impl SlotRetention {
    /// The retained-slot bound, or `None` when unbounded.
    #[must_use]
    pub fn limit(self) -> Option<u64> {
        match self {
            SlotRetention::Unbounded => None,
            SlotRetention::Last(r) => Some(r),
        }
    }

    /// Panics on a degenerate policy (`Last(0)` would retain nothing and
    /// silently freeze every report on arrival).
    pub(crate) fn validate(self) {
        if let SlotRetention::Last(r) = self {
            assert!(r > 0, "retention must keep at least one slot");
        }
    }
}

/// Running first and second moments of the reports for one time slot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlotStats {
    /// Number of reports for the slot.
    pub count: u64,
    /// Sum of reported values.
    pub sum: f64,
    /// Sum of squared reported values.
    pub sum_sq: f64,
}

impl SlotStats {
    /// Folds one value in.
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
    }

    /// Folds another accumulator in.
    pub fn merge(&mut self, other: &SlotStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Mean of the reports, or `None` for an empty slot.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population variance of the reports, or `None` for an empty slot.
    #[must_use]
    pub fn variance(&self) -> Option<f64> {
        self.mean()
            .map(|m| (self.sum_sq / self.count as f64 - m * m).max(0.0))
    }
}

/// Running sum/count of one user's reports (their windowed mean estimate).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UserStats {
    /// Number of reports from the user.
    pub count: u64,
    /// Sum of the user's reported values.
    pub sum: f64,
}

impl UserStats {
    /// The user's running mean estimate, or `None` before any report.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// One occupied slot of [`UserTable`]. `count == 0` doubles as the
/// empty-slot marker — a user only ever enters the table together with
/// its first report, so a real entry always has `count ≥ 1` (and any
/// `u64` remains usable as a user id; no sentinel id is reserved).
#[derive(Debug, Clone, Copy, Default)]
struct UserEntry {
    user: u64,
    count: u64,
    sum: f64,
    /// Cached running mean (`sum / count` of the current state) — saves
    /// recomputing the *previous* mean on the next report, halving the
    /// ingest hot path's division count with bit-identical results.
    mean: f64,
}

impl UserEntry {
    /// Folds one report in and returns the change in the running mean.
    #[inline]
    fn fold(&mut self, value: f64) -> f64 {
        let old_mean = self.mean;
        self.count += 1;
        self.sum += value;
        self.mean = self.sum / self.count as f64;
        self.mean - old_mean
    }
}

#[cfg(test)]
thread_local! {
    /// Slots [`UserTable::probe`] has examined on this thread — lets tests
    /// bound probe work with a count instead of a timer.
    pub(crate) static PROBE_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The per-user running-stats table: open addressing with linear probing
/// over a power-of-two slot array, Fibonacci-hashed.
///
/// This sits on the per-report ingest hot path (one lookup per report,
/// random user order on multi-tenant connections), where a `BTreeMap`'s
/// pointer-chasing walk was the collector's single largest cost. The
/// flat table costs ~1 probe per lookup and one predictable cache line.
/// Iteration order is unspecified; every extraction path (snapshots,
/// per-user rows) sorts by user id before exposing rows, so merged
/// output stays deterministic.
#[derive(Debug, Clone, Default)]
struct UserTable {
    /// Power-of-two slot array (empty until the first insert).
    entries: Vec<UserEntry>,
    /// Occupied slots.
    len: usize,
}

/// Hash multiplier for [`UserTable`] (SplitMix64's odd constant) —
/// deliberately different from the engine's shard-routing multiplier so
/// the table index is decorrelated from the shard assignment that
/// selected which users land in this table.
const USER_HASH: u64 = 0xBF58_476D_1CE4_E5B9;

impl UserTable {
    /// Slot index for `user` in a table of `len` slots (power of two):
    /// the top bits of the multiplicative hash.
    #[inline]
    fn slot_of(user: u64, len: usize) -> usize {
        debug_assert!(len.is_power_of_two());
        (user.wrapping_mul(USER_HASH) >> (64 - len.trailing_zeros())) as usize & (len - 1)
    }

    /// An empty table already as large as inserting `users` entries one by
    /// one would have grown it: the smallest power of two ≥ 16 that the
    /// last insert finds under 7/8 full. Checkpoint restore sizes the
    /// table this way *before* inserting: a checkpoint lists users in
    /// table-scan order, i.e. sorted by hash, and feeding hash-sorted keys
    /// to a table that is still smaller than the final user count piles
    /// them into one linear-probe cluster — quadratic in the user count.
    fn sized_for(users: usize) -> Self {
        if users == 0 {
            return Self::default();
        }
        let mut capacity = 16;
        while (users - 1) * 8 >= capacity * 7 {
            capacity *= 2;
        }
        Self {
            entries: vec![UserEntry::default(); capacity],
            len: 0,
        }
    }

    /// Index of the slot holding `user`, or of the empty slot where the
    /// probe sequence for `user` ends. The table must be non-empty.
    // Forced inline, like `entry_for_fold`: both sit on the per-row fold
    // path, whose throughput on a cache-missing table depends on how many
    // rows' lookups fit in flight at once.
    #[inline(always)]
    fn probe(&self, user: u64) -> usize {
        #[cfg(test)]
        PROBE_STEPS.with(|steps| steps.set(steps.get() + 1));
        let mask = self.entries.len() - 1;
        let mut i = Self::slot_of(user, self.entries.len());
        loop {
            let e = &self.entries[i];
            if e.count == 0 || e.user == user {
                return i;
            }
            #[cfg(test)]
            PROBE_STEPS.with(|steps| steps.set(steps.get() + 1));
            i = (i + 1) & mask;
        }
    }

    /// The entry a report for `user` folds into: grows the table if it is
    /// 7/8 full, then finds `user`'s entry, claiming the empty slot its
    /// probe ends at for a user not seen before. The caller must leave the
    /// entry with a non-zero count.
    ///
    /// `hint` is where an earlier [`Self::probe`] for `user` ended. It is
    /// used only if that slot holds `user` now — a user sits in at most one
    /// slot, so that test alone proves the hint current; anything else (the
    /// probe ended on an empty slot, which a later insert may have claimed,
    /// or the table has grown since) repeats the probe.
    #[inline(always)]
    fn entry_for_fold(&mut self, user: u64, hint: Option<usize>) -> &mut UserEntry {
        if self.len * 8 >= self.entries.len() * 7 {
            self.grow();
        }
        let still_there = |i: &usize| {
            self.entries
                .get(*i)
                .is_some_and(|e| e.count != 0 && e.user == user)
        };
        let i = hint.filter(still_there).unwrap_or_else(|| self.probe(user));
        let e = &mut self.entries[i];
        if e.count == 0 {
            e.user = user;
            self.len += 1;
        }
        e
    }

    /// Folds one report into `user`'s running stats and returns the
    /// change in the user's running mean (what the shard adds to its
    /// population `mean_sum` aggregate).
    fn fold(&mut self, user: u64, value: f64) -> f64 {
        self.entry_for_fold(user, None).fold(value)
    }

    /// Checkpoint-restore insert: seeds a user's full running stats in one
    /// shot. The cached mean is recomputed as `sum / count` — exactly the
    /// value the ingest path left cached, since it maintains the same
    /// invariant after every fold — so restored state is bit-identical.
    pub(crate) fn insert_stats(&mut self, user: u64, count: u64, sum: f64) {
        debug_assert!(count > 0, "restored user must have reported");
        *self.entry_for_fold(user, None) = UserEntry {
            user,
            count,
            sum,
            mean: sum / count as f64,
        };
    }

    /// Doubles the slot array (from 16) and re-inserts every entry.
    fn grow(&mut self) {
        let new_len = (self.entries.len() * 2).max(16);
        let old = std::mem::replace(&mut self.entries, vec![UserEntry::default(); new_len]);
        for e in old {
            if e.count != 0 {
                let i = self.probe(e.user);
                self.entries[i] = e;
            }
        }
    }

    /// Stats for one user, or `None` if the user never reported.
    fn get(&self, user: u64) -> Option<UserStats> {
        if self.entries.is_empty() {
            return None;
        }
        let e = &self.entries[self.probe(user)];
        (e.count != 0).then_some(UserStats {
            count: e.count,
            sum: e.sum,
        })
    }

    /// Iterates occupied entries in unspecified order.
    fn iter(&self) -> impl Iterator<Item = (u64, UserStats)> + '_ {
        self.entries.iter().filter(|e| e.count > 0).map(|e| {
            (
                e.user,
                UserStats {
                    count: e.count,
                    sum: e.sum,
                },
            )
        })
    }
}

/// Rows [`ShardAccumulator::ingest_rows`] probes before it folds any of
/// them: enough independent user-table loads to keep a core's miss buffers
/// full, few enough that the block's row indices and probe results (512
/// bytes) stay on the stack and in L1.
const FOLD_BLOCK: usize = 32;

/// One shard's aggregation state.
///
/// Slot stats are stored densely for the retained range
/// `[base, slot_end)` (a deque, so expiring the oldest slot is O(1));
/// expired slots live on as one frozen aggregate. User stats sit in an
/// open-addressing hash table (`UserTable`) whose iteration order is
/// unspecified; extraction paths sort by user id.
#[derive(Debug, Clone, Default)]
pub struct ShardAccumulator {
    /// Global slot index of the first retained slot (== the number of
    /// slot positions folded into the frozen prefix).
    base: u64,
    /// Retained per-slot stats; index `i` is global slot `base + i`.
    slots: VecDeque<SlotStats>,
    /// `None` = unbounded; `Some(r)` keeps the most recent `r` slots.
    retention: Option<u64>,
    /// Aggregate over every expired slot, plus late reports that arrive
    /// for slots already below `base` — totals stay exact under expiry.
    frozen: SlotStats,
    users: UserTable,
    /// Σ over users of `sum/count` (each user's running mean), maintained
    /// incrementally at ingest so the population-mean aggregate can be
    /// read as one scalar — the live query engine's refresh no longer
    /// walks (or copies) the user table under this shard's ingest mutex.
    mean_sum: f64,
    reports: u64,
}

impl ShardAccumulator {
    /// An empty, unbounded shard.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shard with the given retention policy.
    #[must_use]
    pub fn with_retention(retention: SlotRetention) -> Self {
        retention.validate();
        Self {
            retention: retention.limit(),
            ..Self::default()
        }
    }

    /// Checkpoint-restore constructor: rebuilds a shard from its
    /// serialized parts (see `crate::checkpoint`). `users` holds
    /// `(user, count, sum)` triples; the cached per-user means and the
    /// incremental `mean_sum` are restored bit-exactly (the stored
    /// `mean_sum` is the pre-crash scalar, and every cached mean is
    /// `sum / count`, the invariant the fold path maintains). The user
    /// table is sized once for `users.len()` before any insert (see
    /// `UserTable::sized_for`), so restore is linear in the user count.
    pub(crate) fn restore(
        retention: SlotRetention,
        base: u64,
        slots: VecDeque<SlotStats>,
        frozen: SlotStats,
        mean_sum: f64,
        reports: u64,
        users: &[(u64, u64, f64)],
    ) -> Self {
        retention.validate();
        let mut table = UserTable::sized_for(users.len());
        for &(user, count, sum) in users {
            table.insert_stats(user, count, sum);
        }
        Self {
            base,
            slots,
            retention: retention.limit(),
            frozen,
            users: table,
            mean_sum,
            reports,
        }
    }

    /// Folds one report in — the per-row reference fold: [`Self::ingest_rows`]
    /// must leave the shard exactly as one call of this per row would.
    pub fn ingest_parts(&mut self, user: u64, slot: u64, value: f64) {
        match self.retained_index(slot) {
            Some(i) => self.slots[i].add(value),
            // Late report for an already-expired slot: its own stats are
            // gone, but the value still counts toward lifetime totals.
            None => self.frozen.add(value),
        }
        self.mean_sum += self.users.fold(user, value);
        self.reports += 1;
    }

    /// Folds the reports at `rows` (indices into the three columns), in the
    /// order `rows` yields them — the engine's fold kernel, shared by every
    /// multi-user ingest path. The shard ends bit-identical to one
    /// [`Self::ingest_parts`] call per row: every accumulator receives the
    /// same additions in the same order, and the table grows on the same
    /// rows. Returns the number of rows folded.
    ///
    /// What it saves is waiting. On a table that misses cache a per-row
    /// loop has one lookup in flight at a time; here the rows are taken in
    /// fixed blocks (`FOLD_BLOCK`), every row of a block is probed before
    /// any is folded — independent loads, so their misses overlap — and
    /// the fold pass reuses where each probe ended (see
    /// `UserTable::entry_for_fold` for when that is still valid). And while
    /// consecutive rows share a slot — a gateway frame is one time slot of
    /// many users — the slot's stats are resolved once and stay in locals,
    /// as do `mean_sum` and the report count.
    ///
    /// # Panics
    /// Panics if a row index is out of bounds for any column.
    pub fn ingest_rows(
        &mut self,
        users: &[u64],
        slots: &[u64],
        values: &[f64],
        rows: impl IntoIterator<Item = usize>,
    ) -> u64 {
        let mut rows = rows.into_iter();
        let mut block = [0usize; FOLD_BLOCK];
        let mut probed = [0usize; FOLD_BLOCK];
        // The open stretch: `stats` is the working copy of `open_slot`'s
        // stats, which live at `target` (`None` = the frozen prefix).
        let mut open_slot = None;
        let mut target = None;
        let mut stats = self.frozen;
        let mut mean_sum = self.mean_sum;
        let mut folded = 0u64;
        loop {
            let mut n = 0;
            while n < FOLD_BLOCK {
                let Some(row) = rows.next() else { break };
                block[n] = row;
                n += 1;
            }
            if n == 0 {
                break;
            }
            // An empty table has nothing to probe; the zeroed hints then
            // fail `entry_for_fold`'s test like any other stale hint.
            if !self.users.entries.is_empty() {
                for (at, &row) in probed.iter_mut().zip(&block[..n]) {
                    *at = self.users.probe(users[row]);
                }
            }
            for (&row, &at) in block[..n].iter().zip(&probed) {
                let (slot, value) = (slots[row], values[row]);
                if open_slot != Some(slot) {
                    // Written back before `retained_index` runs: a sliding
                    // window merges expired slots into `frozen`.
                    *self.slot_stats_mut(target) = stats;
                    target = self.retained_index(slot);
                    stats = *self.slot_stats_mut(target);
                    open_slot = Some(slot);
                }
                stats.add(value);
                mean_sum += self.users.entry_for_fold(users[row], Some(at)).fold(value);
            }
            folded += n as u64;
        }
        *self.slot_stats_mut(target) = stats;
        self.mean_sum = mean_sum;
        self.reports += folded;
        folded
    }

    /// The stats a report folds into, given what [`Self::retained_index`]
    /// returned for its slot: the retained slot, or the frozen prefix for
    /// a late report whose own slot has expired.
    #[inline]
    fn slot_stats_mut(&mut self, target: Option<usize>) -> &mut SlotStats {
        match target {
            Some(i) => &mut self.slots[i],
            None => &mut self.frozen,
        }
    }

    /// Folds a run of reports that all come from `user` — the shape of
    /// every single-user upload — performing the same operations in the
    /// same order as one [`Self::ingest_parts`] call per row, so the shard
    /// ends bit-identical. What the run saves is per-row work: the user's
    /// table entry is looked up per run, not per row, and its running
    /// stats and the shard's `mean_sum` stay in registers across the rows.
    ///
    /// # Panics
    /// Panics if `slots` and `values` differ in length.
    pub fn ingest_user_run(&mut self, user: u64, slots: &[u64], values: &[f64]) {
        assert_eq!(slots.len(), values.len(), "ingest_user_run: column lengths");
        let (Some((&slot, slots)), Some((&value, values))) =
            (slots.split_first(), values.split_first())
        else {
            return;
        };
        // The first row takes the per-row path: it is the one that may
        // insert the user, and the lookup below then repeats exactly the
        // table-growth check the per-row path makes for a second row — so
        // table capacity (hence table-scan order) never depends on which
        // path folded. No later row can grow the table.
        self.ingest_parts(user, slot, value);
        if slots.is_empty() {
            return;
        }
        let mut entry = *self.users.entry_for_fold(user, None);
        let mut mean_sum = self.mean_sum;
        for (&slot, &value) in slots.iter().zip(values) {
            match self.retained_index(slot) {
                Some(i) => self.slots[i].add(value),
                None => self.frozen.add(value),
            }
            mean_sum += entry.fold(value);
        }
        let at = self.users.probe(user);
        self.users.entries[at] = entry;
        self.mean_sum = mean_sum;
        self.reports += slots.len() as u64;
    }

    /// Index of `slot` in the retained deque, growing and/or advancing the
    /// retention window as needed. `None` if the slot expired (below
    /// `base`).
    // `#[inline]`: every fold path calls this once per row; out of line it
    // costs the cache-miss-bound 1M-user fold ~10% (fewer rows in flight).
    #[inline]
    fn retained_index(&mut self, slot: u64) -> Option<usize> {
        if slot < self.base {
            return None;
        }
        if let Some(r) = self.retention {
            if slot - self.base >= r {
                // The window slides: everything below the new base freezes.
                // (`slot ≥ r > r - 1`, so this cannot underflow — and
                // unlike `slot + 1 - r` it cannot overflow at u64::MAX.)
                let new_base = slot - (r - 1);
                let expire = (new_base - self.base).min(self.slots.len() as u64);
                for _ in 0..expire {
                    let old = self.slots.pop_front().expect("expire bounded by len");
                    self.frozen.merge(&old);
                }
                self.base = new_base;
            }
        }
        let i = usize::try_from(slot - self.base).expect("slot index overflows usize");
        if i >= self.slots.len() {
            self.slots.resize(i + 1, SlotStats::default());
        }
        Some(i)
    }

    /// Number of reports folded in so far.
    #[must_use]
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Global slot index of the first retained slot (0 until retention
    /// ever expires a slot).
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the highest slot index seen (`base + retained length`).
    #[must_use]
    pub fn slot_end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Number of retained slots (the dense range `[base, slot_end)`).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The retention policy the shard was built with.
    #[must_use]
    pub fn retention(&self) -> SlotRetention {
        match self.retention {
            None => SlotRetention::Unbounded,
            Some(r) => SlotRetention::Last(r),
        }
    }

    /// Stats for one global slot index, or `None` if the slot is expired
    /// or past the end of the retained range.
    #[must_use]
    pub fn slot_stats(&self, slot: u64) -> Option<&SlotStats> {
        let i = usize::try_from(slot.checked_sub(self.base)?).ok()?;
        self.slots.get(i)
    }

    /// Iterates the retained slots as `(global slot index, stats)`.
    pub fn retained_slots(&self) -> impl Iterator<Item = (u64, &SlotStats)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (self.base + i as u64, s))
    }

    /// Aggregate over every expired slot (plus late reports below `base`).
    #[must_use]
    pub fn frozen(&self) -> &SlotStats {
        &self.frozen
    }

    /// Iterates the per-user running stats in **unspecified order** (the
    /// backing store is a hash table; extraction paths that expose rows —
    /// snapshots, [`crate::Collector::per_user_rows`] — sort by user id
    /// after collecting across shards).
    pub fn users(&self) -> impl Iterator<Item = (u64, UserStats)> + '_ {
        self.users.iter()
    }

    /// Running stats for one user, or `None` if the user never reported.
    #[must_use]
    pub fn user_stats(&self, user: u64) -> Option<UserStats> {
        self.users.get(user)
    }

    /// Number of distinct users this shard has seen — O(1).
    #[must_use]
    pub fn user_count(&self) -> usize {
        self.users.len
    }

    /// Copies out this shard's share of a merge — the retained slot window
    /// plus the scalar ledger, everything a merged view reads and all that
    /// a snapshot or a refresh copies while the shard's ingest mutex is
    /// held: bounded by the retained window, never by how many users the
    /// shard has accumulated.
    #[must_use]
    pub fn part(&self) -> SnapshotPart {
        SnapshotPart {
            retained_base: self.base,
            slot_end: self.slot_end(),
            start: self.base,
            slots: self.slots.iter().copied().collect(),
            frozen: self.frozen,
            total_reports: self.reports,
            user_count: self.users.len as u64,
            user_mean_sum: self.mean_sum,
        }
    }

    /// Sum of the per-user running means, maintained incrementally at
    /// ingest — O(1) to read, so extracting the shard's population-mean
    /// contribution costs two scalar loads instead of an O(users) table
    /// walk. Drifts from a fresh recomputation only by accumulated
    /// floating-point rounding (one `new_mean − old_mean` update per
    /// report, each exact to ~1 ulp), far inside the 1e-9 agreement bound
    /// the integration tests pin.
    #[must_use]
    pub fn user_mean_sum(&self) -> f64 {
        self.mean_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_stats_moments() {
        let mut s = SlotStats::default();
        for v in [1.0, 2.0, 3.0] {
            s.add(v);
        }
        assert_eq!(s.count, 3);
        assert!((s.mean().unwrap() - 2.0).abs() < 1e-12);
        assert!((s.variance().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(SlotStats::default().mean(), None);
    }

    #[test]
    fn merge_equals_single_pass() {
        let mut a = SlotStats::default();
        let mut b = SlotStats::default();
        let mut whole = SlotStats::default();
        for (i, v) in [0.3, 0.7, 0.1, 0.9].iter().enumerate() {
            if i % 2 == 0 {
                a.add(*v)
            } else {
                b.add(*v)
            }
            whole.add(*v);
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert!((a.sum - whole.sum).abs() < 1e-12);
        assert!((a.sum_sq - whole.sum_sq).abs() < 1e-12);
    }

    #[test]
    fn shard_ingest_grows_slots_and_tracks_users() {
        let mut shard = ShardAccumulator::new();
        shard.ingest_parts(3, 5, 0.5);
        shard.ingest_parts(3, 6, 0.7);
        shard.ingest_parts(9, 5, 0.1);
        assert_eq!(shard.reports(), 3);
        assert_eq!(shard.base(), 0);
        assert_eq!(shard.slot_count(), 7);
        assert_eq!(shard.slot_end(), 7);
        assert_eq!(shard.slot_stats(5).unwrap().count, 2);
        assert_eq!(shard.slot_stats(0).unwrap().count, 0);
        assert!((shard.user_stats(3).unwrap().mean().unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(shard.user_stats(9).unwrap().count, 1);
    }

    #[test]
    fn retention_expires_old_slots_into_frozen() {
        let mut shard = ShardAccumulator::with_retention(SlotRetention::Last(3));
        for slot in 0..10u64 {
            shard.ingest_parts(1, slot, 0.5);
        }
        assert_eq!(shard.slot_count(), 3, "memory bounded by R");
        assert_eq!(shard.base(), 7);
        assert_eq!(shard.slot_end(), 10);
        assert_eq!(shard.frozen().count, 7);
        assert!((shard.frozen().sum - 3.5).abs() < 1e-12);
        assert_eq!(shard.reports(), 10);
        // Retained slots still queryable, expired ones gone.
        assert_eq!(shard.slot_stats(7).unwrap().count, 1);
        assert_eq!(shard.slot_stats(6), None);
        // Lifetime user stats unaffected by expiry.
        assert_eq!(shard.user_stats(1).unwrap().count, 10);
    }

    #[test]
    fn late_reports_below_base_fold_into_frozen() {
        let mut shard = ShardAccumulator::with_retention(SlotRetention::Last(2));
        shard.ingest_parts(1, 10, 0.25);
        assert_eq!(shard.base(), 9);
        shard.ingest_parts(2, 3, 0.75); // long-expired slot
        assert_eq!(shard.reports(), 2);
        assert_eq!(shard.frozen().count, 1);
        assert!((shard.frozen().sum - 0.75).abs() < 1e-12);
        assert_eq!(
            shard.user_stats(2).unwrap().count,
            1,
            "user totals still exact"
        );
    }

    #[test]
    fn far_future_jump_keeps_window_tight() {
        let mut shard = ShardAccumulator::with_retention(SlotRetention::Last(4));
        shard.ingest_parts(1, 0, 0.5);
        shard.ingest_parts(1, 1_000, 0.5);
        assert_eq!(shard.base(), 997);
        assert_eq!(shard.slot_count(), 4);
        assert_eq!(shard.frozen().count, 1, "slot 0 froze");
        assert_eq!(shard.slot_stats(1_000).unwrap().count, 1);
    }

    #[test]
    fn unbounded_retention_never_freezes() {
        let mut shard = ShardAccumulator::with_retention(SlotRetention::Unbounded);
        for slot in 0..50u64 {
            shard.ingest_parts(1, slot, 0.1);
        }
        assert_eq!(shard.base(), 0);
        assert_eq!(shard.slot_count(), 50);
        assert_eq!(shard.frozen().count, 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_retention_panics() {
        let _ = ShardAccumulator::with_retention(SlotRetention::Last(0));
    }

    #[test]
    fn max_slot_index_does_not_overflow_the_window() {
        let mut shard = ShardAccumulator::with_retention(SlotRetention::Last(3));
        shard.ingest_parts(1, u64::MAX, 0.5);
        assert_eq!(shard.base(), u64::MAX - 2);
        assert_eq!(shard.slot_stats(u64::MAX).unwrap().count, 1);
    }

    #[test]
    fn incremental_mean_sum_tracks_recomputation() {
        let mut shard = ShardAccumulator::new();
        assert_eq!(shard.user_mean_sum(), 0.0);
        for i in 0..500u64 {
            shard.ingest_parts(i % 7, i, (i % 13) as f64 / 13.0 - 0.3);
        }
        let recomputed: f64 = shard.users().map(|(_, s)| s.sum / s.count as f64).sum();
        assert!((shard.user_mean_sum() - recomputed).abs() < 1e-12);
        assert_eq!(shard.user_count(), 7);
    }

    /// Folds `rows` of `(user, slot, value)` into a copy of `shard` once per
    /// row and once through the kernel, requires the two to end identical —
    /// every field, table layout included (`Debug` prints a finite float's
    /// shortest round-trip form, so equal text is equal bits) — and returns
    /// the result.
    fn assert_kernel_matches_per_row(
        shard: &ShardAccumulator,
        rows: &[(u64, u64, f64)],
    ) -> ShardAccumulator {
        let users: Vec<u64> = rows.iter().map(|r| r.0).collect();
        let slots: Vec<u64> = rows.iter().map(|r| r.1).collect();
        let values: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let mut by_row = shard.clone();
        for &(user, slot, value) in rows {
            by_row.ingest_parts(user, slot, value);
        }
        let mut by_kernel = shard.clone();
        let folded = by_kernel.ingest_rows(&users, &slots, &values, 0..rows.len());
        assert_eq!(folded, rows.len() as u64);
        assert_eq!(format!("{by_kernel:?}"), format!("{by_row:?}"));
        by_kernel
    }

    fn shard_with_users(users: u64) -> ShardAccumulator {
        let mut shard = ShardAccumulator::new();
        for user in 0..users {
            shard.ingest_parts(1000 + user, 0, 0.25);
        }
        shard
    }

    #[test]
    fn kernel_inserts_within_a_block_like_the_per_row_fold() {
        // Two new users whose probes start on one home slot of the 16-slot
        // table: probed together, both end on the same empty slot.
        let home = |user| UserTable::slot_of(user, 16);
        let first = 1u64;
        let second = (2u64..)
            .find(|&u| home(u) == home(first))
            .expect("some id shares the slot");
        let value = |i: usize| 0.125 * (i % 7) as f64 - 0.3;
        let rows = |ids: &[u64]| -> Vec<(u64, u64, f64)> {
            ids.iter()
                .enumerate()
                .map(|(i, &u)| (u, 3, value(i)))
                .collect()
        };
        // On an empty table (nothing to probe), and on one already allocated.
        for prior in [0, 3] {
            let shard = shard_with_users(prior);
            assert_kernel_matches_per_row(&shard, &rows(&[first, second, first, second]));
            // The same new user twice, then again after others.
            assert_kernel_matches_per_row(&shard, &rows(&[7, 7, 8, 7, 9, 9]));
        }
    }

    #[test]
    fn kernel_grows_the_table_on_the_same_rows_as_the_per_row_fold() {
        // 14 and 28 users are where the 16- and 32-slot tables reach 7/8;
        // new users arriving mid-block cross them, and rows for users that
        // were probed before the growth follow it.
        for prior in [10, 13, 14, 24, 27, 28] {
            let shard = shard_with_users(prior);
            let rows: Vec<(u64, u64, f64)> = (0..FOLD_BLOCK as u64 + 9)
                .map(|i| {
                    let user = if i % 3 == 0 {
                        1000 + i % prior
                    } else {
                        5000 + i / 2
                    };
                    (user, 1, 0.01 * i as f64)
                })
                .collect();
            let grown = assert_kernel_matches_per_row(&shard, &rows);
            assert!(
                grown.users.entries.len() > shard.users.entries.len(),
                "prior = {prior}"
            );
        }
    }

    #[test]
    fn kernel_keeps_slot_stretches_exact_across_expiry_and_late_slots() {
        let mut shard = ShardAccumulator::with_retention(SlotRetention::Last(3));
        for user in 0..5 {
            shard.ingest_parts(user, 4, 0.5);
        }
        // Stretches change mid-block, slide the window (6, then 40), fall
        // below the retained base (0, 2) and come back to a live slot.
        let slots = [4, 4, 5, 5, 5, 6, 0, 0, 6, 40, 40, 2, 39, 38, 40];
        let rows: Vec<(u64, u64, f64)> = (0..FOLD_BLOCK * 2 + 5)
            .map(|i| (i as u64 % 7, slots[i % slots.len()], 0.1 * (i % 9) as f64))
            .collect();
        assert_kernel_matches_per_row(&shard, &rows);
    }

    #[test]
    fn steady_state_kernel_examines_no_more_table_slots_than_the_per_row_fold() {
        // Every user present and the table not about to grow: the fold pass
        // must reuse where the block's probe pass ended, not probe again.
        let shard = shard_with_users(40); // 64 slots, 40 used
        let n = 3 * FOLD_BLOCK + 5;
        let users: Vec<u64> = (0..n as u64).map(|i| 1000 + (i * 7) % 40).collect();
        let slots = vec![2u64; n];
        let values = vec![0.5; n];
        let steps = || PROBE_STEPS.with(std::cell::Cell::get);

        let mut by_row = shard.clone();
        let before = steps();
        for i in 0..n {
            by_row.ingest_parts(users[i], slots[i], values[i]);
        }
        let per_row_steps = steps() - before;

        let mut by_kernel = shard;
        let before = steps();
        by_kernel.ingest_rows(&users, &slots, &values, 0..n);
        let kernel_steps = steps() - before;

        assert!(per_row_steps >= n as u64);
        assert!(
            kernel_steps <= per_row_steps,
            "kernel examined {kernel_steps} slots, per-row fold {per_row_steps}"
        );
    }
}
