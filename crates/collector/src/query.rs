//! The live windowed query engine: crowd statistics off the ingest path.
//!
//! [`Collector::snapshot`] locks every shard and re-merges the entire
//! state on each call — fine for offline experiments, hopeless for a
//! service answering queries while millions of reports per second stream
//! in. [`QueryEngine`] decouples the two sides:
//!
//! * Every shard carries a lock-free **epoch** that advances when a batch
//!   mutates it ([`Collector::shard_epoch`]).
//! * The engine caches one [`SnapshotPart`] per shard, tagged with the
//!   epoch it was copied out at, plus the [`MergedParts`] of all of them —
//!   a [`LiveView`] — behind an `RwLock<Arc<…>>`.
//! * [`QueryEngine::refresh`] **re-extracts only the shards whose epoch
//!   advanced** — unchanged shards cost one atomic load and are never
//!   locked — and re-assembles the view with the one merge every tier
//!   uses ([`MergedParts::merge`], the function [`Collector::snapshot`]
//!   runs over freshly locked shards and a router over its downstreams'
//!   replies), over the cached parts. Extraction is O(changed shards ×
//!   retained window), the merge O(shards × retained window), neither
//!   O(shard population): the per-user side is carried as two scalars
//!   ([`crate::ShardAccumulator::user_mean_sum`] is maintained
//!   incrementally at ingest), so refresh copies **no user table** under
//!   the ingest mutex no matter how many users the shard holds.
//! * Queries clone the current `Arc` and answer from the immutable view:
//!   O(1) for [`SlotTable::slot_mean`] / [`MergedParts::population_mean`],
//!   O(window) for [`SlotTable::windowed_mean`]. They never touch a shard
//!   mutex, so query load cannot stall ingest.
//!
//! # Consistency model
//!
//! A [`LiveView`] is *per-shard consistent, epoch-bounded stale*: each
//! shard's contribution is a consistent cut of that shard (extracted under
//! its lock), different shards may be cut at slightly different instants
//! (the usual incremental-aggregation tradeoff — exactly the consistency
//! [`Collector::snapshot`] offers), and a view answers with the state of
//! the last [`QueryEngine::refresh`], never anything newer. At quiescence
//! a refreshed view's slot table, frozen prefix and scalar ledger are
//! **bit-identical** to [`Collector::snapshot`]'s — same parts, same
//! order, same function; nothing is ever subtracted. The one query that
//! agrees only to ≤ 1e-9 is the population mean:
//! [`crate::CollectorSnapshot::population_mean`] deliberately recomputes
//! it row by row as the independent check on the incrementally maintained
//! mean sum the view divides.
//!
//! [`SlotTable::slot_mean`]: crate::SlotTable::slot_mean
//! [`SlotTable::windowed_mean`]: crate::SlotTable::windowed_mean

use crate::engine::Collector;
use crate::snapshot::{MergedParts, SnapshotPart};
use crate::sync::{Arc, Mutex, RwLock};
use ldp_telemetry::Histogram;
use std::ops::Deref;

/// One shard's cached contribution: the part it copied out, tagged with
/// the shard epoch it was copied at.
#[derive(Debug, Default)]
struct ShardAggregate {
    epoch: u64,
    part: SnapshotPart,
}

/// An immutable, merged view of the collector as of some refresh.
///
/// Cheap to share (`Arc`), safe to query from any number of threads, and
/// guaranteed not to change underneath the caller — repeated queries
/// against one view are mutually consistent even while ingest continues.
/// Every query is the [`MergedParts`]' (and, for slots, its
/// [`crate::SlotTable`]'s), reached by deref — the same type
/// [`crate::CollectorSnapshot`] answers from.
#[derive(Debug, Default)]
pub struct LiveView {
    /// Monotone refresh counter (0 for the pre-first-refresh empty view).
    version: u64,
    merged: MergedParts,
    /// The per-shard parts `merged` was assembled from, kept so the next
    /// refresh re-extracts only the shards that changed.
    shards: Vec<Arc<ShardAggregate>>,
}

impl Deref for LiveView {
    type Target = MergedParts;

    fn deref(&self) -> &MergedParts {
        &self.merged
    }
}

impl LiveView {
    /// Monotone refresh version this view was published at.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The live query engine over a [`Collector`] (see the module docs for
/// the architecture). Create one per collector and share it by reference;
/// any number of query threads may call [`Self::view`] while others call
/// [`Self::refresh`].
///
/// Generic over *how* the collector is held: `QueryEngine<&Collector>`
/// borrows (the in-process shape, as before), while
/// `QueryEngine<Arc<Collector>>` owns a handle — which is what a network
/// server needs to move the engine into long-lived service threads
/// without tying it to a stack frame.
#[derive(Debug)]
pub struct QueryEngine<C: Deref<Target = Collector>> {
    collector: C,
    view: RwLock<Arc<LiveView>>,
    /// Serializes refreshers so concurrent refreshes cannot publish out
    /// of order.
    refresh: Mutex<()>,
    /// `query.refresh_nanos` — latency of refreshes that re-published
    /// the view (no-op revalidations are not recorded).
    refresh_nanos: Arc<Histogram>,
    /// `query.refresh.shards_merged` — how many shards each publishing
    /// refresh re-extracted: the change-set size the engine is paying for.
    refresh_shards: Arc<Histogram>,
}

impl<C: Deref<Target = Collector>> QueryEngine<C> {
    /// Creates an engine over `collector` and publishes an initial view
    /// (one refresh, so pre-existing state is visible immediately).
    #[must_use]
    pub fn new(collector: C) -> Self {
        let empty = LiveView {
            shards: (0..collector.shard_count())
                .map(|_| Arc::new(ShardAggregate::default()))
                .collect(),
            ..LiveView::default()
        };
        let registry = collector.telemetry();
        let refresh_nanos = registry.histogram("query.refresh_nanos");
        let refresh_shards = registry.histogram("query.refresh.shards_merged");
        let engine = Self {
            collector,
            view: RwLock::new(Arc::new(empty)),
            refresh: Mutex::new(()),
            refresh_nanos,
            refresh_shards,
        };
        engine.refresh();
        engine
    }

    /// The collector this engine serves.
    #[must_use]
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The current published view (an `Arc` clone — O(1), never blocks on
    /// an ingest mutex). Possibly one refresh stale — call
    /// [`Self::refresh`] first for the freshest answer.
    #[must_use]
    pub fn view(&self) -> Arc<LiveView> {
        self.view.read().expect("query view poisoned").clone()
    }

    /// Re-publishes the merged view after re-extracting every shard whose
    /// epoch advanced since it was last extracted. Returns the number of
    /// shards that were re-extracted (0 means the view was already
    /// current and nothing was swapped).
    ///
    /// Cost: O(changed shards × retained window) under shard locks — the
    /// per-user side is two scalars, so extraction is bounded by the
    /// change set, never the shard population — plus one
    /// O(shards × retained window) merge of the cached parts; shards that
    /// did not change are revalidated with one atomic load each.
    pub fn refresh(&self) -> usize {
        let _serialize = self.refresh.lock().expect("refresh lock poisoned");
        let timer = self.refresh_nanos.timer();
        let cur = self.view();

        // Re-extract the shards whose epoch moved. The epoch is re-read
        // under the shard lock so it is exactly paired with the extracted
        // state; only the copy-out happens inside the lock.
        let mut shards = cur.shards.clone();
        let mut refreshed = 0;
        for (k, cached) in shards.iter_mut().enumerate() {
            if self.collector.shard_epoch(k) != cached.epoch {
                let guard = self.collector.lock_shard(k);
                let epoch = self.collector.shard_epoch(k);
                let part = guard.part();
                drop(guard);
                *cached = Arc::new(ShardAggregate { epoch, part });
                refreshed += 1;
            }
        }
        if refreshed == 0 {
            // A no-op revalidation — recording it would drown the
            // latency distribution of real refreshes in atomic loads.
            timer.cancel();
            return 0;
        }
        self.refresh_shards.record(refreshed as u64);

        let next = Arc::new(LiveView {
            version: cur.version + 1,
            merged: MergedParts::merge(shards.iter().map(|s| &s.part)),
            shards,
        });
        *self.view.write().expect("query view poisoned") = next;
        refreshed
    }

    /// Each user's running mean estimate, ordered by user id — the
    /// crowd-level distribution query. Unlike the O(1) aggregates this is
    /// inherently O(population), so it is served by briefly locking each
    /// shard for a row copy ([`Collector::per_user_rows`]) rather than by
    /// dragging a full user table through every refresh.
    #[must_use]
    pub fn per_user_means(&self) -> Vec<f64> {
        self.collector
            .per_user_rows()
            .into_iter()
            .map(|(_, count, sum)| sum / count as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::SlotRetention;
    use crate::engine::CollectorConfig;
    use crate::report::ReportBatch;

    fn collector(shards: usize, retention: SlotRetention) -> Collector {
        Collector::new(CollectorConfig {
            shards,
            retention,
            ..CollectorConfig::default()
        })
    }

    fn batch(reports: &[(u64, u64, f64)]) -> ReportBatch {
        let mut b = ReportBatch::new();
        for &(user, slot, value) in reports {
            b.push(user, slot, value);
        }
        b
    }

    #[test]
    fn fresh_engine_sees_preexisting_state() {
        let c = collector(3, SlotRetention::Unbounded);
        c.ingest(&batch(&[(1, 0, 0.5), (2, 0, 0.7), (3, 1, 0.1)]));
        let engine = QueryEngine::new(&c);
        let view = engine.view();
        assert_eq!(view.total_reports(), 3);
        assert_eq!(view.user_count(), 3);
        assert!((view.slot_mean(0).unwrap() - 0.6).abs() < 1e-12);
        assert!(view.version() >= 1);
    }

    #[test]
    fn refresh_is_noop_when_nothing_changed() {
        let c = collector(4, SlotRetention::Unbounded);
        c.ingest(&batch(&[(1, 0, 0.5)]));
        let engine = QueryEngine::new(&c);
        let v1 = engine.view().version();
        assert_eq!(engine.refresh(), 0, "no epoch moved");
        assert_eq!(engine.view().version(), v1, "view not re-published");
    }

    #[test]
    fn refresh_republishes_only_changed_shards() {
        let c = collector(4, SlotRetention::Unbounded);
        c.ingest(&batch(&[(1, 0, 0.5), (2, 0, 0.7), (9, 1, 0.3)]));
        let engine = QueryEngine::new(&c);
        // One more batch touching a single user → a single shard.
        c.ingest(&batch(&[(1, 1, 0.9)]));
        assert_eq!(engine.refresh(), 1);
        let view = engine.view();
        assert_eq!(view.total_reports(), 4);
        assert!((view.slot_mean(0).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn view_matches_snapshot_after_refresh() {
        let c = collector(5, SlotRetention::Unbounded);
        for round in 0..10u64 {
            let mut b = ReportBatch::new();
            for user in 0..40u64 {
                b.push(user, round, (user as f64 % 7.0) / 7.0);
            }
            c.ingest(&b);
        }
        let engine = QueryEngine::new(&c);
        let view = engine.view();
        let snap = c.snapshot();
        assert_eq!(view.total_reports(), snap.total_reports());
        assert_eq!(view.user_count(), snap.user_count() as u64);
        assert_eq!(view.slot_end(), snap.slot_end());
        for slot in 0..10 {
            assert!(
                (view.slot_mean(slot).unwrap() - snap.slot_mean(slot).unwrap()).abs() < 1e-12,
                "slot {slot}"
            );
        }
        assert!((view.population_mean().unwrap() - snap.population_mean().unwrap()).abs() < 1e-12);
        // The heavy distribution query (shard-locking path) agrees too.
        let means = engine.per_user_means();
        assert_eq!(means.len(), snap.per_user_means().len());
        for (a, b) in means.iter().zip(snap.per_user_means()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn incremental_refreshes_track_a_sliding_retention_window() {
        let c = collector(3, SlotRetention::Last(5));
        let engine = QueryEngine::new(&c);
        for slot in 0..50u64 {
            let mut b = ReportBatch::new();
            for user in 0..12u64 {
                b.push(user, slot, 0.25 + (slot % 4) as f64 * 0.1);
            }
            c.ingest(&b);
            engine.refresh();
        }
        let view = engine.view();
        let snap = c.snapshot();
        assert_eq!(view.retained_base(), snap.retained_base());
        assert_eq!(view.slot_end(), 50);
        assert!(view.slot_count() <= 5);
        for slot in view.retained_base()..view.slot_end() {
            let (a, b) = (
                view.slot_mean(slot as usize).unwrap(),
                snap.slot_mean(slot as usize).unwrap(),
            );
            assert!((a - b).abs() < 1e-9, "slot {slot}: {a} vs {b}");
        }
        assert_eq!(view.frozen().count, snap.frozen().count);
        assert!((view.frozen().sum - snap.frozen().sum).abs() < 1e-6);
        assert_eq!(view.slot_mean(0), None, "expired slots are gone");
    }

    #[test]
    fn views_are_stable_while_ingest_continues() {
        let c = collector(2, SlotRetention::Unbounded);
        c.ingest(&batch(&[(1, 0, 0.5)]));
        let engine = QueryEngine::new(&c);
        let view = engine.view();
        let before = view.total_reports();
        c.ingest(&batch(&[(2, 0, 0.9)]));
        engine.refresh();
        assert_eq!(view.total_reports(), before, "old view is immutable");
        assert_eq!(engine.view().total_reports(), before + 1);
    }

    #[test]
    fn empty_collector_yields_a_well_defined_view() {
        let c = collector(2, SlotRetention::Unbounded);
        let engine = QueryEngine::new(&c);
        let view = engine.view();
        assert_eq!(view.total_reports(), 0);
        assert_eq!(view.population_mean(), None);
        assert_eq!(view.slot_mean(0), None);
        assert_eq!(view.windowed_mean(0..4), None);
        assert!(engine.per_user_means().is_empty());
    }
}
