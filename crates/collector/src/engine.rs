//! The sharded collector engine.

use crate::accumulator::{ShardAccumulator, SlotRetention};
use crate::pool::IngestPool;
use crate::report::AsReportColumns;
use crate::snapshot::CollectorSnapshot;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard, OnceLock};
use ldp_telemetry::{Counter, Histogram, Registry};
use std::cell::RefCell;

/// Default bound on the dense slot range (see [`CollectorConfig::max_slots`]).
pub const DEFAULT_MAX_SLOTS: u64 = 1 << 20;

/// Default minimum routed-report count before a batch's fold pass is
/// dispatched to the work-stealing pool (see
/// [`CollectorConfig::parallel_fold_min`]). Below this, handing runs to
/// other threads costs more than folding them in place: the injector
/// round trip is ~a microsecond while a small run folds in less.
pub const DEFAULT_PARALLEL_FOLD_MIN: usize = 16 * 1024;

/// The machine's available parallelism, queried once and cached — the
/// single number collector shard defaults, fleet thread counts, and
/// server sizing all consult, so the three can never disagree within a
/// process (and the syscall is not re-issued on every
/// [`CollectorConfig::default`]).
#[must_use]
pub fn default_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    })
}

/// Default ingest-pool worker count: the `LDP_INGEST_WORKERS`
/// environment override if set, else one fold worker per core *beyond*
/// the submitting thread (capped at 8 — fold parallelism is bounded by
/// the shard count anyway). On a single-core machine this is 0: the
/// pool is never spawned and every fold is inline, exactly the pre-pool
/// behavior.
#[must_use]
pub fn default_ingest_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("LDP_INGEST_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| default_parallelism().saturating_sub(1).min(8))
    })
}

/// Collector tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Number of independent shards. Reports are routed by user id, so
    /// shards only contend when two ingests carry the same shard's users.
    pub shards: usize,
    /// Upper bound on accepted slot indices. Slot stats are stored
    /// densely, so without a bound one buggy or malicious client could
    /// force an enormous allocation with a single report; reports with
    /// `slot >= max_slots` are dropped and counted in
    /// [`Collector::dropped_reports`].
    pub max_slots: u64,
    /// How long per-slot statistics stay queryable. The default keeps
    /// every slot; [`SlotRetention::Last`]`(R)` bounds each shard to the
    /// most recent `R` slots it has seen (choose `R ≥ w` so the w-event
    /// window is always covered), folding older slots into exact frozen
    /// prefix totals — collector memory stays O(R) on unbounded streams.
    pub retention: SlotRetention,
    /// Worker threads for the work-stealing parallel shard fold. `0`
    /// folds every batch inline on the submitting thread (the pre-pool
    /// behavior); `N > 0` spawns `N` stealing threads **lazily, on the
    /// first batch that qualifies for parallel dispatch** — a collector
    /// that only ever sees small or single-shard batches never pays for
    /// a thread. Total fold parallelism for one batch is `workers + 1`:
    /// the submitter participates (fold-own, then steal) until its
    /// batch's completion counter drains, so per-batch
    /// [`IngestOutcome`] ledgers are exact and results are bit-identical
    /// to a serial fold. Default: [`default_ingest_workers`]
    /// (`LDP_INGEST_WORKERS` overrides).
    pub ingest_workers: usize,
    /// Minimum routed (accepted) report count before a multi-shard
    /// batch's fold pass is dispatched to the pool; smaller batches —
    /// and batches touching a single shard — fold inline. Default:
    /// [`DEFAULT_PARALLEL_FOLD_MIN`].
    pub parallel_fold_min: usize,
}

impl Default for CollectorConfig {
    /// One shard per available core (capped at 16, via the process-wide
    /// cached [`default_parallelism`]); slot bound [`DEFAULT_MAX_SLOTS`];
    /// unbounded retention; fold-pool sizing per
    /// [`default_ingest_workers`].
    fn default() -> Self {
        let shards = default_parallelism().min(16);
        Self {
            shards,
            max_slots: DEFAULT_MAX_SLOTS,
            retention: SlotRetention::Unbounded,
            ingest_workers: default_ingest_workers(),
            parallel_fold_min: DEFAULT_PARALLEL_FOLD_MIN,
        }
    }
}

/// One shard slot: the accumulator behind its ingest mutex, plus a
/// lock-free epoch that advances on every mutation so the live query
/// engine can tell changed shards apart without touching the mutex.
#[derive(Debug)]
struct Shard {
    acc: Mutex<ShardAccumulator>,
    epoch: AtomicU64,
}

/// Reusable multi-shard routing scratch: one counting sort that turns a
/// batch into **contiguous per-shard index runs**, so the fold phase takes
/// each touched shard's lock exactly once, walks one cache-friendly run
/// under it, and the steady state allocates nothing (the scratch lives in
/// a thread-local and keeps its capacity across batches).
#[derive(Debug, Default)]
struct ShardScratch {
    /// Routing decision per report: the shard index, or [`SKIP`] for a
    /// report screened out (slot out of bounds / non-finite value).
    shard: Vec<u32>,
    /// Per-shard accepted-report counts, then reused as scatter cursors.
    cursors: Vec<u32>,
    /// Run boundaries: shard `s` owns `idx[starts[s] as usize..starts[s + 1] as usize]`.
    starts: Vec<u32>,
    /// Report indices grouped by shard — the contiguous runs.
    idx: Vec<u32>,
}

/// Sentinel shard id for a screened-out report (an engine never has
/// `u32::MAX` shards; [`Collector::new`] would exhaust memory first).
const SKIP: u32 = u32::MAX;

/// The counting sort indexes a batch's rows with `u32` (half the scratch
/// footprint of `usize` on 64-bit, and run descriptors stay 16 bytes).
/// A batch beyond that index space would silently alias rows, so the
/// routing pass processes at most this many rows per chunk — each chunk
/// is routed, scattered, and folded independently, which preserves the
/// ledger exactly and the fold order (and therefore every accumulator
/// bit) too.
const ROUTE_CHUNK_ROWS: usize = u32::MAX as usize;

thread_local! {
    /// Each ingesting thread routes through its own scratch — connection
    /// threads and fleet workers never contend on it, and a long-lived
    /// thread reaches a zero-allocation steady state.
    static SHARD_SCRATCH: RefCell<ShardScratch> = RefCell::new(ShardScratch::default());
}

/// The user every row of a batch belongs to, if there is just one. A
/// mixed batch is told apart by comparing its first and last rows, so the
/// multi-user paths pay nothing per row; only when those two agree is the
/// column scanned, and the scan stops at the first row that differs.
fn sole_user(users: &[u64]) -> Option<u64> {
    let (&first, rest) = users.split_first()?;
    (users.last() == Some(&first) && rest.iter().all(|&user| user == first)).then_some(first)
}

/// Per-batch ingest ledger: how [`Collector::ingest_outcome`] disposed of
/// every report in the batch (`accepted + dropped + rejected` always
/// equals the batch length).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Reports folded into shard accumulators.
    pub accepted: u64,
    /// Reports dropped for a slot index at or above the configured bound.
    pub dropped: u64,
    /// Reports rejected for carrying a non-finite value.
    pub rejected: u64,
}

impl IngestOutcome {
    /// Adds `other` into this ledger. Saturating: the counts a ledger
    /// sums may be client-controlled, so a hostile `u64::MAX` pins it at
    /// the ceiling instead of panicking (debug) or wrapping (release).
    pub fn absorb(&mut self, other: IngestOutcome) {
        self.accepted = self.accepted.saturating_add(other.accepted);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.rejected = self.rejected.saturating_add(other.rejected);
    }
}

/// The collector's registered telemetry handles (see the crate-level
/// metric catalog in the README). Disposition tallies live here — the
/// telemetry counters ARE the collector's books, not a copy of them, and
/// the wire's `Metrics` frame is the one place they travel.
#[derive(Debug)]
struct CollectorMetrics {
    /// `collector.reports.accepted` — reports folded into shards.
    accepted: Arc<Counter>,
    /// `collector.reports.dropped` — slot index at/above `max_slots`.
    dropped: Arc<Counter>,
    /// `collector.reports.rejected` — non-finite values, wherever caught.
    rejected: Arc<Counter>,
    /// `collector.reports.rejected_upstream` — the subset of `rejected`
    /// screened client-side and forwarded via
    /// [`Collector::note_upstream_rejections`].
    rejected_upstream: Arc<Counter>,
    /// `collector.ingest.batches` — non-empty batches ingested.
    batches: Arc<Counter>,
    /// `collector.ingest.fold_nanos` — per-batch route+fold latency.
    fold_nanos: Arc<Histogram>,
    /// `collector.ingest.fold_parallel_nanos` — fold-pass latency for
    /// the batches dispatched to the work-stealing pool (a subset of
    /// `fold_nanos`; comparing the two tails is the speedup signal the
    /// dashboard shows).
    fold_parallel_nanos: Arc<Histogram>,
    /// `collector.shard.<k>.batches` — batches that folded reports into
    /// shard `k`: the shard-imbalance signal.
    shard_batches: Vec<Arc<Counter>>,
}

impl CollectorMetrics {
    fn register(registry: &Registry, shards: usize) -> Self {
        Self {
            accepted: registry.counter("collector.reports.accepted"),
            dropped: registry.counter("collector.reports.dropped"),
            rejected: registry.counter("collector.reports.rejected"),
            rejected_upstream: registry.counter("collector.reports.rejected_upstream"),
            batches: registry.counter("collector.ingest.batches"),
            fold_nanos: registry.histogram("collector.ingest.fold_nanos"),
            fold_parallel_nanos: registry.histogram("collector.ingest.fold_parallel_nanos"),
            shard_batches: (0..shards)
                .map(|k| registry.counter(&format!("collector.shard.{k:02}.batches")))
                .collect(),
        }
    }
}

/// A sharded, incremental aggregation engine for perturbed slot reports.
///
/// Thread-safe: `ingest` takes `&self`, so any number of client threads
/// can upload concurrently. Each report is routed to the shard owning its
/// user; a batch locks each shard at most once.
#[derive(Debug)]
pub struct Collector {
    shards: Vec<Shard>,
    /// `⌊(2⁶⁴ − 1) / shards⌋ + 1` (mod 2⁶⁴): turns [`Self::shard_of`]'s
    /// remainder into two multiplications (see there).
    shard_magic: u64,
    max_slots: u64,
    ingest_workers: usize,
    parallel_fold_min: usize,
    /// The work-stealing fold pool, spawned lazily on the first batch
    /// that qualifies for parallel dispatch (never, when
    /// `ingest_workers == 0`). Living inside the collector means every
    /// ingesting thread — all of a server's connection threads share an
    /// `Arc<Collector>` — shares one pool.
    pool: OnceLock<IngestPool>,
    telemetry: Arc<Registry>,
    metrics: CollectorMetrics,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new(CollectorConfig::default())
    }
}

impl Collector {
    /// Creates an engine with the configured shard count.
    ///
    /// # Panics
    /// Panics if `config.shards` is 0 or does not fit in 32 bits.
    #[must_use]
    pub fn new(config: CollectorConfig) -> Self {
        assert!(config.shards > 0, "collector needs at least one shard");
        assert!(
            u32::try_from(config.shards).is_ok(),
            "collector shard count must fit in 32 bits"
        );
        let telemetry = Arc::new(Registry::new());
        let metrics = CollectorMetrics::register(&telemetry, config.shards);
        Self {
            shards: (0..config.shards)
                .map(|_| Shard {
                    acc: Mutex::new(ShardAccumulator::with_retention(config.retention)),
                    epoch: AtomicU64::new(0),
                })
                .collect(),
            shard_magic: (u64::MAX / config.shards as u64).wrapping_add(1),
            max_slots: config.max_slots,
            ingest_workers: config.ingest_workers,
            parallel_fold_min: config.parallel_fold_min.max(1),
            pool: OnceLock::new(),
            telemetry,
            metrics,
        }
    }

    /// The fold pool, spawning it on first use. `None` when the
    /// collector is configured without workers.
    fn pool(&self) -> Option<&IngestPool> {
        if self.ingest_workers == 0 {
            return None;
        }
        Some(
            self.pool
                .get_or_init(|| IngestPool::start(self.ingest_workers, &self.telemetry)),
        )
    }

    /// Configured fold-pool worker count (0 = always-inline folds).
    #[must_use]
    pub fn ingest_workers(&self) -> usize {
        self.ingest_workers
    }

    /// Stops the fold pool's worker threads, if they were ever spawned.
    /// No run is lost: workers drain the injector before exiting, and a
    /// submit racing the stop folds its own leftovers — every in-flight
    /// batch still completes with an exact ledger. Subsequent ingests
    /// fold inline. Idempotent; dropping the collector stops the pool
    /// too.
    pub fn stop_ingest_pool(&self) {
        if let Some(pool) = self.pool.get() {
            pool.stop();
        }
    }

    /// The telemetry registry this collector's metrics live in. The
    /// server and query engine register their own metrics here too, so
    /// one registry (and one wire-served snapshot) covers the whole
    /// pipeline.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `user`: `(user·φ >> 32) % shards` (Fibonacci
    /// multiply-shift, so consecutive user ids spread across shards).
    ///
    /// The remainder is taken without a division, once per routed report:
    /// for a 32-bit dividend `h` and divisor `d`, the low 64 bits of
    /// `shard_magic · h` are `(h % d) / d` scaled by 2⁶⁴ and over by less
    /// than `h`, so their product with `d`, shifted down 64 bits, is
    /// `h % d` plus less than `h·d / 2⁶⁴ < 1` — exactly `h % d` (Lemire,
    /// Kaser & Kurz, "Faster remainder by direct computation", 2019).
    /// `d = 1` wraps the magic to 0 and yields 0.
    #[must_use]
    pub fn shard_of(&self, user: u64) -> usize {
        let hash = user.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let fraction = self.shard_magic.wrapping_mul(hash);
        ((u128::from(fraction) * self.shards.len() as u128) >> 64) as usize
    }

    /// Ingests one batch — owned [`crate::ReportBatch`] or borrowed
    /// [`crate::ReportColumns`] view — locking each touched shard once.
    /// Returns the number of reports accepted; reports with
    /// `slot >= max_slots` are dropped (see [`Self::dropped_reports`]) and
    /// non-finite values are rejected (see [`Self::rejected_reports`]) —
    /// [`crate::ReportBatch::push`] already refuses non-finite values, so
    /// the ingest-side guard is defense in depth against columns built
    /// some other way (e.g. straight off the wire).
    ///
    /// The batch is columnar: the shard-routing pass reads only the user
    /// column (screening slots and values as it routes), and accumulation
    /// streams the slot/value columns. A batch whose rows all belong to
    /// one user — every [`crate::ClientFleet`] upload — folds as a run:
    /// one lock, no routing scratch, the user's entry looked up once. A
    /// collector configured with one shard also skips routing. Otherwise
    /// the batch's indices are counting-sorted into contiguous per-shard
    /// runs inside a reusable thread-local scratch, so each lock is held
    /// over one cache-friendly run and the steady state performs no heap
    /// allocation.
    pub fn ingest<B: AsReportColumns + ?Sized>(&self, batch: &B) -> usize {
        self.ingest_outcome(batch).accepted as usize
    }

    /// Like [`Self::ingest`], but returns the full per-batch disposition
    /// ledger — what a network server needs to acknowledge an upload
    /// frame without re-deriving drop/reject counts from global deltas.
    pub fn ingest_outcome<B: AsReportColumns + ?Sized>(&self, batch: &B) -> IngestOutcome {
        let columns = batch.report_columns();
        let (users, slots, values) = (columns.users(), columns.slots(), columns.values());
        if users.is_empty() {
            return IngestOutcome::default();
        }
        // One timer per batch (not per report): the clock reads amortize
        // to nothing at normal batch sizes, and a no-op when disabled.
        let fold_timer = self.metrics.fold_nanos.timer();
        let mut tally = IngestOutcome::default();
        if let Some(user) = sole_user(users) {
            self.ingest_user_batch(user, slots, values, &mut tally);
        } else if self.shards.len() == 1 {
            self.ingest_single_shard(0, users, slots, values, &mut tally);
        } else {
            self.ingest_chunked(users, slots, values, ROUTE_CHUNK_ROWS, &mut tally);
        }
        drop(fold_timer); // record route+fold, not the tallying below
        self.metrics.batches.inc();
        self.metrics.accepted.add(tally.accepted);
        self.metrics.dropped.add(tally.dropped);
        self.metrics.rejected.add(tally.rejected);
        tally
    }

    /// The single-user path (every fleet upload, and any device's own
    /// stream): one shard, one lock, no routing scratch. Rows are screened
    /// in order and every maximal stretch of accepted rows folds through
    /// [`ShardAccumulator::ingest_user_run`] — the shard ends bit-identical
    /// to folding the accepted rows one at a time.
    fn ingest_user_batch(
        &self,
        user: u64,
        slots: &[u64],
        values: &[f64],
        tally: &mut IngestOutcome,
    ) {
        let shard_idx = self.shard_of(user);
        let shard = &self.shards[shard_idx];
        let mut accepted = 0usize;
        {
            let mut acc = shard.acc.lock().expect("collector shard poisoned");
            let mut row = 0;
            while row < slots.len() {
                if slots[row] >= self.max_slots {
                    tally.dropped += 1;
                    row += 1;
                } else if !values[row].is_finite() {
                    tally.rejected += 1;
                    row += 1;
                } else {
                    let run = slots[row..]
                        .iter()
                        .zip(&values[row..])
                        .take_while(|&(&slot, value)| slot < self.max_slots && value.is_finite())
                        .count();
                    acc.ingest_user_run(user, &slots[row..row + run], &values[row..row + run]);
                    accepted += run;
                    row += run;
                }
            }
        }
        if accepted > 0 {
            shard.epoch.fetch_add(1, Ordering::Release);
            self.metrics.shard_batches[shard_idx].inc();
            tally.accepted += accepted as u64;
        }
    }

    /// The single-shard fast path (a one-shard collector): one lock, no
    /// routing scratch, screening inline.
    fn ingest_single_shard(
        &self,
        shard_idx: usize,
        users: &[u64],
        slots: &[u64],
        values: &[f64],
        tally: &mut IngestOutcome,
    ) {
        let shard = &self.shards[shard_idx];
        let screened = (0..users.len()).filter(|&i| {
            if slots[i] >= self.max_slots {
                tally.dropped += 1;
                false
            } else if !values[i].is_finite() {
                tally.rejected += 1;
                false
            } else {
                true
            }
        });
        let accepted = shard
            .acc
            .lock()
            .expect("collector shard poisoned")
            .ingest_rows(users, slots, values, screened);
        if accepted > 0 {
            shard.epoch.fetch_add(1, Ordering::Release);
            self.metrics.shard_batches[shard_idx].inc();
            tally.accepted += accepted;
        }
    }

    /// Multi-shard ingest in row chunks the counting sort can index with
    /// `u32` (see [`ROUTE_CHUNK_ROWS`]); the chunk size is a parameter
    /// only so tests can exercise the boundary without a 4-billion-row
    /// batch.
    fn ingest_chunked(
        &self,
        users: &[u64],
        slots: &[u64],
        values: &[f64],
        chunk_rows: usize,
        tally: &mut IngestOutcome,
    ) {
        SHARD_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let mut start = 0;
            while start < users.len() {
                let end = users.len().min(start + chunk_rows);
                self.ingest_runs(
                    &mut scratch,
                    &users[start..end],
                    &slots[start..end],
                    &values[start..end],
                    tally,
                );
                start = end;
            }
        });
    }

    /// The multi-shard ingest path: one **routing pass** computes each
    /// report's shard and screens slot bounds and non-finite values (so
    /// nothing is re-checked under a lock) while watching whether every
    /// accepted report lands on one shard — the uniform case skips the
    /// sort entirely. Otherwise a counting sort scatters the accepted
    /// indices into contiguous per-shard runs inside `scratch`, and the
    /// **fold pass** either streams each run under its shard's mutex
    /// inline, or — when the batch is large enough and a pool is
    /// configured — dispatches the runs to the work-stealing pool and
    /// participates until they drain.
    fn ingest_runs(
        &self,
        scratch: &mut ShardScratch,
        users: &[u64],
        slots: &[u64],
        values: &[f64],
        tally: &mut IngestOutcome,
    ) {
        let n_shards = self.shards.len();
        scratch.cursors.clear();
        scratch.cursors.resize(n_shards, 0);
        scratch.shard.clear();
        scratch.shard.reserve(users.len());
        // Routing pass: shard + screen in one stream over the columns,
        // detecting single-destination batches on the fly (the old
        // implementation pre-scanned the user column a whole extra time
        // — and re-hashed every user — just to ask "uniform?").
        let mut first_dest = SKIP;
        let mut uniform = true;
        for i in 0..users.len() {
            let destination = if slots[i] >= self.max_slots {
                tally.dropped += 1;
                SKIP
            } else if !values[i].is_finite() {
                tally.rejected += 1;
                SKIP
            } else {
                let s = self.shard_of(users[i]);
                scratch.cursors[s] += 1;
                let s = s as u32;
                if first_dest == SKIP {
                    first_dest = s;
                } else if s != first_dest {
                    uniform = false;
                }
                s
            };
            scratch.shard.push(destination);
        }
        if first_dest == SKIP {
            return; // every report screened out; no shard touched
        }
        if uniform {
            // Single destination: fold straight off the routing
            // decisions — no prefix sum, no scatter, one lock.
            let shard_idx = first_dest as usize;
            let shard = &self.shards[shard_idx];
            let routed = scratch
                .shard
                .iter()
                .enumerate()
                .filter_map(|(i, &destination)| (destination != SKIP).then_some(i));
            let accepted = shard
                .acc
                .lock()
                .expect("collector shard poisoned")
                .ingest_rows(users, slots, values, routed);
            shard.epoch.fetch_add(1, Ordering::Release);
            self.metrics.shard_batches[shard_idx].inc();
            tally.accepted += accepted;
            return;
        }
        // Prefix-sum the counts into run boundaries, leaving `cursors`
        // as each shard's scatter position.
        scratch.starts.clear();
        scratch.starts.reserve(n_shards + 1);
        let mut total = 0u32;
        let mut non_empty_runs = 0usize;
        for cursor in &mut scratch.cursors {
            scratch.starts.push(total);
            let count = *cursor;
            if count > 0 {
                non_empty_runs += 1;
            }
            *cursor = total;
            total += count;
        }
        scratch.starts.push(total);
        // Scatter pass: group accepted report indices by shard.
        scratch.idx.clear();
        scratch.idx.resize(total as usize, 0);
        for (i, &destination) in scratch.shard.iter().enumerate() {
            if destination != SKIP {
                let cursor = &mut scratch.cursors[destination as usize];
                scratch.idx[*cursor as usize] = i as u32;
                *cursor += 1;
            }
        }
        tally.accepted += u64::from(total);
        // Fold pass. Large run sets go to the work-stealing pool (the
        // submitter participates until its batch drains, so the ledger
        // above is already exact); small ones fold inline — below the
        // threshold the injector round trip costs more than the fold.
        if non_empty_runs >= 2 && total as usize >= self.parallel_fold_min {
            if let Some(pool) = self.pool().filter(|p| p.is_active()) {
                let parallel_timer = self.metrics.fold_parallel_nanos.timer();
                pool.fold_batch(self, users, slots, values, &scratch.idx, &scratch.starts);
                drop(parallel_timer);
                return;
            }
        }
        // Serial fold: one lock per touched shard, one contiguous run each.
        for shard_idx in 0..n_shards {
            let run = &scratch.idx
                [scratch.starts[shard_idx] as usize..scratch.starts[shard_idx + 1] as usize];
            if run.is_empty() {
                continue;
            }
            self.fold_run(shard_idx, users, slots, values, run);
        }
    }

    /// Folds one contiguous index run into one shard: the unit of work
    /// both the serial fold pass and the work-stealing pool execute —
    /// shared so the two cannot diverge. Within a batch each shard's run
    /// is folded in index order by exactly one thread, which is why a
    /// parallel fold is bit-identical to a serial one.
    pub(crate) fn fold_run(
        &self,
        shard_idx: usize,
        users: &[u64],
        slots: &[u64],
        values: &[f64],
        run: &[u32],
    ) {
        let shard = &self.shards[shard_idx];
        shard
            .acc
            .lock()
            .expect("collector shard poisoned")
            .ingest_rows(users, slots, values, run.iter().map(|&i| i as usize));
        shard.epoch.fetch_add(1, Ordering::Release);
        self.metrics.shard_batches[shard_idx].inc();
    }

    /// Total reports accepted so far, across all shards. Served from a
    /// lock-free monotone counter — reading it neither stalls ingest nor
    /// risks a torn cross-shard sum (the old implementation locked every
    /// shard mutex in turn and could still count one in-flight batch
    /// partially).
    #[must_use]
    pub fn total_reports(&self) -> u64 {
        self.metrics.accepted.get()
    }

    /// The mutation epoch of shard `shard`: advances once per batch that
    /// changed the shard, so a cached aggregate tagged with the epoch it
    /// was extracted at can be revalidated without taking the ingest
    /// mutex.
    #[must_use]
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.shards[shard].epoch.load(Ordering::Acquire)
    }

    /// Locks one shard for state extraction (the query engine's refresh
    /// path). Callers should hold the guard as briefly as possible — the
    /// same mutex serializes ingest for that shard.
    pub(crate) fn lock_shard(&self, shard: usize) -> MutexGuard<'_, ShardAccumulator> {
        self.shards[shard]
            .acc
            .lock()
            .expect("collector shard poisoned")
    }

    /// Reports rejected because their slot index exceeded the configured
    /// `max_slots` bound.
    #[must_use]
    pub fn dropped_reports(&self) -> u64 {
        self.metrics.dropped.get()
    }

    /// Reports rejected for carrying a non-finite value (one NaN folded
    /// into a shard would poison every mean it touches) — whether screened
    /// at ingest or already refused while the upload batch was built (the
    /// fleet forwards those counts here).
    #[must_use]
    pub fn rejected_reports(&self) -> u64 {
        self.metrics.rejected.get()
    }

    /// The subset of [`Self::rejected_reports`] that was screened
    /// *upstream* of this collector (client-side batch building or a
    /// remote client's forwarded count) rather than at ingest.
    #[must_use]
    pub fn upstream_rejected_reports(&self) -> u64 {
        self.metrics.rejected_upstream.get()
    }

    /// Non-empty batches ingested so far (each counted once, whatever
    /// mix of accept/drop/reject it carried).
    #[must_use]
    pub fn ingested_batches(&self) -> u64 {
        self.metrics.batches.get()
    }

    /// Folds in rejections that happened upstream of ingest (e.g.
    /// [`crate::ReportBatch::push`] refusing a non-finite client report, or a
    /// remote client's wire frame carrying its local rejection count), so
    /// [`Self::rejected_reports`] accounts for every poison value seen
    /// anywhere on the upload path.
    pub fn note_upstream_rejections(&self, n: u64) {
        self.metrics.rejected.add(n);
        self.metrics.rejected_upstream.add(n);
    }

    /// Checkpoint support: the five global book counters in serialization
    /// order `(accepted, dropped, rejected, rejected_upstream, batches)`.
    pub(crate) fn book_counters(&self) -> [u64; 5] {
        [
            self.metrics.accepted.get(),
            self.metrics.dropped.get(),
            self.metrics.rejected.get(),
            self.metrics.rejected_upstream.get(),
            self.metrics.batches.get(),
        ]
    }

    /// Checkpoint support: shard `shard`'s batch book counter.
    pub(crate) fn shard_batches_count(&self, shard: usize) -> u64 {
        self.metrics.shard_batches[shard].get()
    }

    /// Checkpoint support: re-seed the book counters of a fresh collector
    /// from checkpointed values (the counters are monotone and start at
    /// zero, so an `add` restores them exactly). Also advances each shard's
    /// epoch so cached query views never mistake restored state for empty.
    pub(crate) fn restore_books(&self, books: [u64; 5], shard_batches: &[u64]) {
        let [accepted, dropped, rejected, rejected_upstream, batches] = books;
        self.metrics.accepted.add(accepted);
        self.metrics.dropped.add(dropped);
        self.metrics.rejected.add(rejected);
        self.metrics.rejected_upstream.add(rejected_upstream);
        self.metrics.batches.add(batches);
        for (shard, &count) in shard_batches.iter().enumerate() {
            self.metrics.shard_batches[shard].add(count);
            self.shards[shard].epoch.fetch_add(1, Ordering::Release);
        }
    }

    /// Checkpoint support: replace shard `shard`'s accumulator wholesale.
    pub(crate) fn restore_shard(&self, shard: usize, acc: ShardAccumulator) {
        *self.lock_shard(shard) = acc;
    }

    /// `(user id, report count, value sum)` rows for every user, sorted
    /// by id — the crowd-distribution extraction. Locks each shard in
    /// turn (briefly: one row copy per user), so this is the *heavy*
    /// per-user query; O(1) aggregates are served lock-free through
    /// [`crate::QueryEngine`].
    #[must_use]
    pub fn per_user_rows(&self) -> Vec<(u64, u64, f64)> {
        let mut rows: Vec<(u64, u64, f64)> = Vec::new();
        for shard in &self.shards {
            let acc = shard.acc.lock().expect("collector shard poisoned");
            rows.extend(acc.users().map(|(id, s)| (id, s.count, s.sum)));
        }
        rows.sort_unstable_by_key(|&(id, _, _)| id);
        rows
    }

    /// Takes a merged, immutable snapshot of the current crowd state.
    ///
    /// Shards are locked one at a time and only scanned — per-user rows
    /// are extracted directly rather than cloning shard maps — so
    /// ingestion keeps running with minimal stalls. The snapshot is
    /// consistent per shard, not globally: the usual
    /// incremental-aggregation tradeoff.
    #[must_use]
    pub fn snapshot(&self) -> CollectorSnapshot {
        CollectorSnapshot::merge(
            self.shards
                .iter()
                .map(|s| s.acc.lock().expect("collector shard poisoned")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ReportBatch;

    fn config(shards: usize) -> CollectorConfig {
        CollectorConfig {
            shards,
            ..CollectorConfig::default()
        }
    }

    fn batch_of(users: &[u64]) -> ReportBatch {
        let mut b = ReportBatch::new();
        for (i, &u) in users.iter().enumerate() {
            b.push(u, i as u64 % 4, 0.25 * (i % 4) as f64);
        }
        b
    }

    #[test]
    fn ingest_counts_every_report() {
        let c = Collector::new(config(3));
        let n = c.ingest(&batch_of(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(n, 8);
        assert_eq!(c.total_reports(), 8);
        assert_eq!(c.ingest(&ReportBatch::new()), 0);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let c = Collector::new(config(5));
        for u in 0..1000u64 {
            let s = c.shard_of(u);
            assert!(s < 5);
            assert_eq!(s, c.shard_of(u));
        }
    }

    #[test]
    fn shard_routing_spreads_users() {
        let c = Collector::new(config(4));
        let mut counts = [0usize; 4];
        for u in 0..10_000u64 {
            counts[c.shard_of(u)] += 1;
        }
        for &n in &counts {
            assert!(n > 1500, "shard underloaded: {counts:?}");
        }
    }

    #[test]
    fn multiply_high_routing_equals_the_remainder_it_replaces() {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        // PHI is odd, so it has an inverse mod 2^64 (Newton's iteration):
        // the user `(h << 32) * inverse` hashes to exactly the dividend `h`.
        let mut inverse = PHI;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(PHI.wrapping_mul(inverse)));
        }
        assert_eq!(PHI.wrapping_mul(inverse), 1);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for shards in 1..=64usize {
            let c = Collector::new(config(shards));
            let d = shards as u64;
            let mut users = vec![0, 1, u64::MAX, u64::MAX - 1];
            // Dividends at both ends of the 32-bit range and around
            // multiples of the shard count.
            let top = u64::from(u32::MAX);
            for h in [
                0,
                1,
                d - 1,
                d,
                d + 1,
                top,
                top - 1,
                top - d,
                top / d * d,
                top / d * d - 1,
            ] {
                users.push((h << 32).wrapping_mul(inverse));
            }
            for k in 0..64u64 {
                users.push(k * shards as u64);
                users.push((k << 32) * shards as u64);
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                users.push(state);
                users.push(state >> 40);
            }
            for user in users {
                let by_remainder = (user.wrapping_mul(PHI) >> 32) as usize % shards;
                assert_eq!(
                    c.shard_of(user),
                    by_remainder,
                    "{shards} shards, user {user}"
                );
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "fit in 32 bits")]
    fn shard_count_beyond_32_bits_panics_before_allocating() {
        let _ = Collector::new(config(u32::MAX as usize + 1));
    }

    #[test]
    fn single_and_multi_shard_agree() {
        let one = Collector::new(config(1));
        let many = Collector::new(config(7));
        let batch = batch_of(&[10, 11, 12, 13, 14, 15, 16, 17, 18, 19]);
        one.ingest(&batch);
        many.ingest(&batch);
        let (a, b) = (one.snapshot(), many.snapshot());
        assert_eq!(a.total_reports(), b.total_reports());
        assert_eq!(a.per_user_means().len(), b.per_user_means().len());
        for (x, y) in a.per_user_means().iter().zip(b.per_user_means()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn out_of_bound_slots_are_dropped_not_allocated() {
        let c = Collector::new(CollectorConfig {
            shards: 2,
            max_slots: 100,
            ..CollectorConfig::default()
        });
        let mut b = ReportBatch::new();
        b.push(1, 5, 0.5);
        b.push(1, 100, 0.5); // at the bound: rejected
        b.push(2, u64::MAX, 0.5); // absurd slot: rejected, no allocation
        assert_eq!(c.ingest(&b), 1);
        assert_eq!(c.total_reports(), 1);
        assert_eq!(c.dropped_reports(), 2);
        let snap = c.snapshot();
        assert_eq!(snap.slot_count(), 6);
        assert_eq!(snap.user_count(), 1);
    }

    #[test]
    fn mixed_shard_batches_respect_the_slot_bound_too() {
        let c = Collector::new(CollectorConfig {
            shards: 4,
            max_slots: 10,
            ..CollectorConfig::default()
        });
        let mut b = ReportBatch::new();
        for u in 0..20u64 {
            b.push(u, u % 15, 0.5); // slots 10..14 rejected
        }
        let accepted = c.ingest(&b);
        assert_eq!(accepted as u64 + c.dropped_reports(), 20);
        assert!(c.dropped_reports() > 0);
        assert!(c.snapshot().slot_count() <= 10);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Collector::new(config(0));
    }

    #[test]
    fn non_finite_values_are_rejected_at_ingest() {
        // ReportBatch::push screens NaN already; the wire path
        // (from_columns) does not, so ingest must catch it — on both the
        // single-shard fast path and the partitioned path.
        for shards in [1usize, 4] {
            let c = Collector::new(config(shards));
            let batch = ReportBatch::from_columns(
                vec![1, 2, 3, 4],
                vec![0, 0, 1, 1],
                vec![0.5, f64::NAN, f64::INFINITY, 0.25],
            );
            assert_eq!(c.ingest(&batch), 2, "{shards} shards");
            assert_eq!(c.rejected_reports(), 2);
            assert_eq!(c.dropped_reports(), 0);
            let snap = c.snapshot();
            assert_eq!(snap.total_reports(), 2);
            assert!(snap.slots().iter().all(|s| s.sum.is_finite()));
            assert!((snap.slot_mean(0).unwrap() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn retention_bounds_shard_memory_and_keeps_totals() {
        use crate::accumulator::SlotRetention;
        let c = Collector::new(CollectorConfig {
            shards: 2,
            retention: SlotRetention::Last(8),
            ..CollectorConfig::default()
        });
        let mut b = ReportBatch::new();
        for slot in 0..200u64 {
            b.push(slot % 10, slot, 0.5);
        }
        assert_eq!(c.ingest(&b), 200);
        assert_eq!(c.total_reports(), 200);
        let snap = c.snapshot();
        assert!(snap.slot_count() <= 8, "retained range bounded by R");
        assert_eq!(snap.slot_end(), 200);
        assert_eq!(
            snap.frozen().count + snap.slots().iter().map(|s| s.count).sum::<u64>(),
            200,
            "expired slots fold into frozen, not into the void"
        );
    }

    #[test]
    fn shard_epochs_advance_only_on_accepted_mutations() {
        let c = Collector::new(config(2));
        let epochs_at = |c: &Collector| (0..2).map(|k| c.shard_epoch(k)).collect::<Vec<_>>();
        let before = epochs_at(&c);
        // A batch that is entirely dropped must not advance any epoch.
        let mut dropped = ReportBatch::new();
        dropped.push(1, u64::MAX, 0.5);
        c.ingest(&dropped);
        assert_eq!(epochs_at(&c), before);
        // An accepted batch advances exactly the touched shard's epoch.
        let mut ok = ReportBatch::new();
        ok.push(1, 0, 0.5);
        c.ingest(&ok);
        let after = epochs_at(&c);
        let advanced: Vec<_> = (0..2).filter(|&k| after[k] > before[k]).collect();
        assert_eq!(advanced, vec![c.shard_of(1)]);
    }

    #[test]
    fn ingest_outcome_accounts_for_every_report() {
        let c = Collector::new(CollectorConfig {
            shards: 3,
            max_slots: 10,
            ..CollectorConfig::default()
        });
        let batch = ReportBatch::from_columns(
            vec![1, 2, 3, 4, 5],
            vec![0, 99, 5, 3, 2],
            vec![0.5, 0.5, f64::NAN, 0.25, 0.75],
        );
        let out = c.ingest_outcome(&batch);
        assert_eq!(
            out,
            IngestOutcome {
                accepted: 3,
                dropped: 1,
                rejected: 1
            }
        );
        assert_eq!(
            out.accepted + out.dropped + out.rejected,
            batch.len() as u64
        );
        assert_eq!(c.total_reports(), 3);
    }

    #[test]
    fn per_user_rows_are_sorted_and_complete() {
        let c = Collector::new(config(4));
        c.ingest(&batch_of(&[9, 3, 7, 3, 9, 1]));
        let rows = c.per_user_rows();
        assert_eq!(
            rows.iter().map(|&(id, _, _)| id).collect::<Vec<_>>(),
            vec![1, 3, 7, 9]
        );
        assert_eq!(rows.iter().map(|&(_, n, _)| n).sum::<u64>(), 6);
        let snap = c.snapshot();
        let means: Vec<f64> = rows.iter().map(|&(_, n, s)| s / n as f64).collect();
        assert_eq!(means, snap.per_user_means());
    }

    /// A multi-shard batch with screening mixed in: some slots out of
    /// bounds, some values non-finite, users spread across shards.
    fn hostile_columns(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let mut users = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        let mut state = seed | 1;
        for _ in 0..n {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            users.push(state >> 48);
            slots.push(if state.is_multiple_of(11) {
                u64::MAX
            } else {
                state % 32
            });
            values.push(if state.is_multiple_of(7) {
                f64::NAN
            } else {
                (state % 4096) as f64 / 4096.0
            });
        }
        (users, slots, values)
    }

    fn assert_bit_identical(a: &Collector, b: &Collector) {
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.total_reports(), sb.total_reports());
        assert_eq!(sa.user_ids(), sb.user_ids());
        let means_a: Vec<u64> = sa.per_user_means().iter().map(|m| m.to_bits()).collect();
        let means_b: Vec<u64> = sb.per_user_means().iter().map(|m| m.to_bits()).collect();
        assert_eq!(means_a, means_b, "per-user means must match bit for bit");
        assert_eq!(sa.slot_count(), sb.slot_count());
        for (x, y) in sa.slots().iter().zip(sb.slots()) {
            assert_eq!(x.count, y.count);
            assert_eq!(x.sum.to_bits(), y.sum.to_bits());
            assert_eq!(x.sum_sq.to_bits(), y.sum_sq.to_bits());
        }
    }

    #[test]
    fn chunked_routing_matches_single_pass_at_the_boundary() {
        // The real chunk size is u32::MAX rows; routing must behave
        // identically — ledger and accumulator bits — wherever the chunk
        // boundary falls, including exactly at and one past it.
        let chunk = 64;
        for n in [chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
            let (users, slots, values) = hostile_columns(n, n as u64);
            let reference = Collector::new(config(5));
            let chunked = Collector::new(config(5));
            let mut one_pass = IngestOutcome::default();
            reference.ingest_chunked(&users, &slots, &values, ROUTE_CHUNK_ROWS, &mut one_pass);
            let mut many_pass = IngestOutcome::default();
            chunked.ingest_chunked(&users, &slots, &values, chunk, &mut many_pass);
            assert_eq!(one_pass, many_pass, "n = {n}");
            assert_bit_identical(&reference, &chunked);
        }
    }

    #[test]
    fn uniform_multi_shard_batch_folds_without_scatter() {
        // All reports target one user (one shard) with screening mixed
        // in: the routing pass detects uniformity itself now, and only
        // the destination shard's epoch may advance.
        let c = Collector::new(CollectorConfig {
            shards: 4,
            max_slots: 16,
            ..CollectorConfig::default()
        });
        let batch = ReportBatch::from_columns(
            vec![42; 6],
            vec![0, 99, 1, 2, 3, 4],
            vec![0.5, 0.5, f64::NAN, 0.25, 0.75, 0.5],
        );
        let out = c.ingest_outcome(&batch);
        assert_eq!(
            out,
            IngestOutcome {
                accepted: 4,
                dropped: 1,
                rejected: 1
            }
        );
        let target = c.shard_of(42);
        for k in 0..4 {
            assert_eq!(c.shard_epoch(k), u64::from(k == target));
        }
    }

    #[test]
    fn parallel_fold_is_bit_identical_and_survives_pool_stop() {
        let (users, slots, values) = hostile_columns(4096, 99);
        let batch = ReportBatch::from_columns(users, slots, values);
        let serial = Collector::new(config(4));
        let parallel = Collector::new(CollectorConfig {
            shards: 4,
            ingest_workers: 2,
            parallel_fold_min: 1,
            ..CollectorConfig::default()
        });
        assert_eq!(
            serial.ingest_outcome(&batch),
            parallel.ingest_outcome(&batch)
        );
        assert_bit_identical(&serial, &parallel);
        // Stopping the pool mid-life loses nothing; later batches fold
        // inline and still land.
        parallel.stop_ingest_pool();
        assert_eq!(
            serial.ingest_outcome(&batch),
            parallel.ingest_outcome(&batch)
        );
        assert_bit_identical(&serial, &parallel);
        let snap = parallel.telemetry().snapshot();
        assert!(snap.counter("collector.pool.runs").unwrap_or(0) >= 2);
    }

    #[test]
    fn concurrent_ingest_from_many_threads() {
        let c = Collector::new(config(4));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let c = &c;
                scope.spawn(move || {
                    let mut b = ReportBatch::new();
                    for i in 0..1000u64 {
                        b.push(t * 1000 + i, i % 10, 0.5);
                    }
                    c.ingest(&b);
                });
            }
        });
        assert_eq!(c.total_reports(), 8000);
        let snap = c.snapshot();
        assert_eq!(snap.per_user_means().len(), 8000);
        assert!((snap.slot_mean(0).unwrap() - 0.5).abs() < 1e-12);
    }
}
