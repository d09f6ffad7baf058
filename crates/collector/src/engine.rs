//! The sharded collector engine.

use crate::accumulator::{ShardAccumulator, SlotRetention};
use crate::pool::IngestPool;
use crate::report::{AsReportColumns, ReportColumns};
use crate::snapshot::CollectorSnapshot;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard, OnceLock};
use ldp_telemetry::{Counter, Histogram, Registry};
use std::cell::RefCell;

/// Default bound on the dense slot range (see [`CollectorConfig::max_slots`]).
pub const DEFAULT_MAX_SLOTS: u64 = 1 << 20;

/// Minimum routed (accepted) report count before a multi-shard batch's
/// fold pass is dispatched to the work-stealing pool; smaller batches —
/// and batches touching a single shard — fold inline. Below this, handing
/// runs to other threads costs more than folding them in place: the
/// injector round trip is ~a microsecond while a small run folds in less.
pub const PARALLEL_FOLD_MIN: usize = 16 * 1024;

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
    /// to a serial fold. At most `shards − 1` workers are spawned, whatever
    /// is asked: a fold holds its shard's mutex, so no more than `shards`
    /// folds run at once, and the submitter is one of them. Only a batch
    /// of at least [`PARALLEL_FOLD_MIN`] routed reports qualifies.
    /// Default: [`default_ingest_workers`] (`LDP_INGEST_WORKERS`
    /// overrides).
    pub ingest_workers: usize,
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

/// The routing half's per-thread scratch: the per-report routing
/// decisions and per-shard counts a counting sort needs while it runs,
/// and nothing the fold reads (that is a [`RoutedBatch`]). It lives in a
/// thread-local and keeps its capacity across batches, so a long-lived
/// ingesting thread routes without allocating.
#[derive(Debug, Default)]
struct RouteScratch {
    /// Routing decision per report: the shard index, or [`SKIP`] for a
    /// report screened out (slot out of bounds / non-finite value).
    shard: Vec<u32>,
    /// Per-shard accepted-report counts, then reused as scatter cursors.
    cursors: Vec<u32>,
}

/// Sentinel shard id for a screened-out report (an engine never has
/// `u32::MAX` shards; [`Collector::new`] would exhaust memory first).
const SKIP: u32 = u32::MAX;

/// The counting sort indexes a batch's rows with `u32` (half the scratch
/// footprint of `usize` on 64-bit, and run descriptors stay 16 bytes).
/// A batch beyond that index space would silently alias rows, so
/// [`Collector::route`] takes at most this many rows and
/// [`Collector::ingest_outcome`] routes and folds a longer batch in chunks
/// of this size — which preserves the ledger exactly and the fold order
/// (and therefore every accumulator bit) too.
const ROUTE_CHUNK_ROWS: usize = u32::MAX as usize;

thread_local! {
    /// Each routing thread sorts through its own scratch — connection
    /// threads, fleet workers and a recovery's scan thread never contend
    /// on it.
    static ROUTE_SCRATCH: RefCell<RouteScratch> = RefCell::new(RouteScratch::default());
    /// The batch a live ingest routes and then folds on the same thread.
    static ROUTED: RefCell<RoutedBatch> = RefCell::new(RoutedBatch::default());
}

/// A batch after the routing half ([`Collector::route`]) and before the
/// folding half ([`Collector::fold_routed`]): every report screened, its
/// ledger tallied, the accepted ones grouped into what one shard lock
/// folds. Routing takes no lock and touches no shared state, so one
/// thread can route while another folds what it routed earlier — a
/// recovery's scan thread routes each logged frame, the calling thread
/// only folds. The value is reusable scratch: routing into it again
/// keeps its capacity.
#[derive(Debug, Default)]
pub struct RoutedBatch {
    /// Rows of the routed columns, and shards of the collector that routed
    /// them: a fold checks both against its own before it reads an index.
    rows: usize,
    shards: usize,
    /// The batch's ledger; the fold books it as it is.
    outcome: IngestOutcome,
    /// `Some(user)` when every row belongs to `user`: the accepted rows are
    /// then `user_runs`, each `(first_slot, start, end)` a maximal run of
    /// consecutive slots at rows `start..end`. `None`: they are the index
    /// runs below.
    sole_user: Option<u64>,
    user_runs: Vec<(u64, usize, usize)>,
    /// Run boundaries (`shards + 1` prefix sums, empty when nothing was
    /// accepted): shard `s` folds `idx[starts[s] as usize..starts[s + 1] as usize]`.
    starts: Vec<u32>,
    /// Accepted row indices grouped by shard, ascending within each run.
    idx: Vec<u32>,
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
    /// `collector.ingest.fold_nanos` — per-batch route+fold latency (the
    /// fold alone for a batch routed on another thread, as replay's are).
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
            ingest_workers: config.ingest_workers.min(config.shards - 1),
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
    /// streams the slot/value columns. How a batch is grouped into what
    /// one lock folds is [`Self::route`]; the steady state performs no
    /// heap allocation.
    pub fn ingest<B: AsReportColumns + ?Sized>(&self, batch: &B) -> usize {
        self.ingest_outcome(batch).accepted as usize
    }

    /// Like [`Self::ingest`], but returns the full per-batch disposition
    /// ledger — what a network server needs to acknowledge an upload
    /// frame without re-deriving drop/reject counts from global deltas.
    /// The two halves of [`Self::route`] and [`Self::fold_routed`] on one
    /// thread, through a thread-local [`RoutedBatch`].
    pub fn ingest_outcome<B: AsReportColumns + ?Sized>(&self, batch: &B) -> IngestOutcome {
        let columns = batch.report_columns();
        if columns.is_empty() {
            return IngestOutcome::default();
        }
        // One timer per batch (not per report): the clock reads amortize
        // to nothing at normal batch sizes, and a no-op when disabled.
        let fold_timer = self.metrics.fold_nanos.timer();
        let tally = ROUTED.with(|routed| {
            self.ingest_chunked(columns, ROUTE_CHUNK_ROWS, &mut routed.borrow_mut())
        });
        drop(fold_timer); // record route+fold, not the booking below
        self.book(tally);
        tally
    }

    /// Routes and folds `columns` in chunks of at most `chunk_rows` rows
    /// (see [`ROUTE_CHUNK_ROWS`]) and returns their summed ledger; the
    /// chunk size is a parameter only so tests can exercise the boundary
    /// without a 4-billion-row batch.
    fn ingest_chunked(
        &self,
        columns: ReportColumns<'_>,
        chunk_rows: usize,
        routed: &mut RoutedBatch,
    ) -> IngestOutcome {
        let (users, slots, values) = (columns.users(), columns.slots(), columns.values());
        let mut tally = IngestOutcome::default();
        let mut start = 0;
        while start < users.len() {
            let end = users.len().min(start + chunk_rows);
            let chunk =
                ReportColumns::new(&users[start..end], &slots[start..end], &values[start..end]);
            self.route(&chunk, routed);
            self.fold_runs(chunk, routed);
            tally.absorb(routed.outcome);
            start = end;
        }
        tally
    }

    /// The routing half of an ingest: screens every report (a slot at or
    /// past `max_slots` is dropped, a non-finite value rejected), tallies
    /// the batch's [`IngestOutcome`] and groups the accepted reports into
    /// `routed`, replacing what it held. It takes no lock and reads only
    /// this collector's shard count and slot bound, which never change, so
    /// it may run on any thread ahead of the fold.
    ///
    /// A batch whose rows all belong to one user — a device's own stream
    /// off the wire — becomes that user's maximal runs of consecutive
    /// slots: no sort, and the fold looks the user up once. (An in-process
    /// [`crate::ClientFleet`] upload never becomes a batch:
    /// [`crate::CollectorSink`] folds it as one run.) A one-shard
    /// collector's accepted rows are its one run. Otherwise one pass
    /// routes each report to its shard while screening it, and a counting
    /// sort groups the accepted indices into contiguous per-shard runs —
    /// one run when they all land on one shard — so the fold locks each
    /// touched shard once and walks one cache-friendly run under it. The
    /// sort's scratch is thread-local, and `routed` keeps its capacity, so
    /// a steady stream of batches routes without allocating.
    ///
    /// # Panics
    /// If the batch has more than `u32::MAX` rows (runs index rows with
    /// `u32`; [`Self::ingest_outcome`] splits such a batch).
    pub fn route<B: AsReportColumns + ?Sized>(&self, batch: &B, routed: &mut RoutedBatch) {
        let columns = batch.report_columns();
        let (users, slots, values) = (columns.users(), columns.slots(), columns.values());
        assert!(
            users.len() <= ROUTE_CHUNK_ROWS,
            "a routed batch indexes its rows with u32"
        );
        routed.rows = users.len();
        routed.shards = self.shards.len();
        routed.outcome = IngestOutcome::default();
        routed.user_runs.clear();
        routed.starts.clear();
        routed.idx.clear();
        routed.sole_user = sole_user(users);
        if routed.sole_user.is_some() {
            self.route_user_runs(slots, values, routed);
        } else if self.shards.len() == 1 {
            let RoutedBatch {
                outcome,
                starts,
                idx,
                ..
            } = routed;
            idx.extend(
                (0..users.len())
                    .filter(|&i| self.admits(slots[i], values[i], outcome))
                    .map(|i| i as u32),
            );
            outcome.accepted = idx.len() as u64;
            if !idx.is_empty() {
                starts.extend([0, idx.len() as u32]);
            }
        } else {
            ROUTE_SCRATCH.with(|scratch| {
                self.route_shards(&mut scratch.borrow_mut(), users, slots, values, routed);
            });
        }
    }

    /// Screens one report, tallying a drop or a rejection; true when the
    /// report is accepted.
    #[inline]
    fn admits(&self, slot: u64, value: f64, tally: &mut IngestOutcome) -> bool {
        if slot >= self.max_slots {
            tally.dropped += 1;
            false
        } else if !value.is_finite() {
            tally.rejected += 1;
            false
        } else {
            true
        }
    }

    /// The single-user route: rows are screened in order and the accepted
    /// ones recorded as maximal runs of consecutive slots, which
    /// [`ShardAccumulator::ingest_user_runs`] folds bit-identical to
    /// folding the accepted rows one at a time.
    fn route_user_runs(&self, slots: &[u64], values: &[f64], routed: &mut RoutedBatch) {
        let mut row = 0;
        while row < slots.len() {
            if !self.admits(slots[row], values[row], &mut routed.outcome) {
                row += 1;
                continue;
            }
            let (start, first) = (row, slots[row]);
            // The run: finite values whose slots count up from `first`,
            // staying below `max_slots`.
            row += slots[start..]
                .iter()
                .zip(&values[start..])
                .zip(first..self.max_slots)
                .take_while(|&((&slot, value), expected)| slot == expected && value.is_finite())
                .count();
            routed.user_runs.push((first, start, row));
            routed.outcome.accepted += (row - start) as u64;
        }
    }

    /// The multi-shard route: one **routing pass** computes each report's
    /// shard and screens slot bounds and non-finite values (so nothing is
    /// re-checked under a lock), then a counting sort scatters the
    /// accepted indices into contiguous per-shard runs.
    fn route_shards(
        &self,
        scratch: &mut RouteScratch,
        users: &[u64],
        slots: &[u64],
        values: &[f64],
        routed: &mut RoutedBatch,
    ) {
        scratch.cursors.clear();
        scratch.cursors.resize(self.shards.len(), 0);
        scratch.shard.clear();
        scratch.shard.reserve(users.len());
        for i in 0..users.len() {
            let destination = if self.admits(slots[i], values[i], &mut routed.outcome) {
                let s = self.shard_of(users[i]);
                scratch.cursors[s] += 1;
                s as u32
            } else {
                SKIP
            };
            scratch.shard.push(destination);
        }
        // Prefix-sum the counts into run boundaries, leaving `cursors`
        // as each shard's scatter position.
        let mut total = 0u32;
        for cursor in &mut scratch.cursors {
            routed.starts.push(total);
            let count = *cursor;
            *cursor = total;
            total += count;
        }
        if total == 0 {
            routed.starts.clear(); // every report screened out
            return;
        }
        routed.starts.push(total);
        // Scatter pass: group accepted report indices by shard.
        routed.idx.resize(total as usize, 0);
        for (i, &destination) in scratch.shard.iter().enumerate() {
            if destination != SKIP {
                let cursor = &mut scratch.cursors[destination as usize];
                routed.idx[*cursor as usize] = i as u32;
                *cursor += 1;
            }
        }
        routed.outcome.accepted = u64::from(total);
    }

    /// The folding half of an ingest: folds what [`Self::route`] put in
    /// `routed` — taking each touched shard's lock once — and books the
    /// routed ledger, which it returns. `batch` must be the columns
    /// `routed` was routed from (the thread that routed them may be
    /// another one); the collector ends bit-identical to
    /// [`Self::ingest_outcome`] of that batch, books included.
    ///
    /// # Panics
    /// If `batch` has another row count than the routed one, or another
    /// collector's shard count routed it.
    pub fn fold_routed<B: AsReportColumns + ?Sized>(
        &self,
        batch: &B,
        routed: &RoutedBatch,
    ) -> IngestOutcome {
        let columns = batch.report_columns();
        assert_eq!(
            columns.len(),
            routed.rows,
            "a routed batch folds the columns it was routed from"
        );
        if columns.is_empty() {
            return IngestOutcome::default();
        }
        assert_eq!(
            routed.shards,
            self.shards.len(),
            "a routed batch folds into a collector of the shard count that routed it"
        );
        let fold_timer = self.metrics.fold_nanos.timer();
        self.fold_runs(columns, routed);
        drop(fold_timer);
        self.book(routed.outcome);
        routed.outcome
    }

    /// The one fold dispatch: a sole user's runs under its shard's lock;
    /// otherwise each shard's index run — through the work-stealing pool
    /// when the batch is large enough and spans two or more shards (the
    /// submitter participates until the batch drains, so the routed ledger
    /// is exact when this returns), else inline, one lock per touched
    /// shard. Below [`PARALLEL_FOLD_MIN`] the injector round trip costs
    /// more than the fold.
    fn fold_runs(&self, columns: ReportColumns<'_>, routed: &RoutedBatch) {
        let (users, slots, values) = (columns.users(), columns.slots(), columns.values());
        if let Some(user) = routed.sole_user {
            if !routed.user_runs.is_empty() {
                let runs = routed
                    .user_runs
                    .iter()
                    .map(|&(first, start, end)| (first, &values[start..end]));
                let folded = self.fold_user_runs(user, runs);
                debug_assert_eq!(folded, routed.outcome.accepted);
            }
            return;
        }
        let starts = &routed.starts;
        let run_of = |shard: usize| &routed.idx[starts[shard] as usize..starts[shard + 1] as usize];
        let Some(&total) = starts.last() else {
            return; // nothing accepted; no shard touched
        };
        let n_shards = starts.len() - 1;
        if total as usize >= PARALLEL_FOLD_MIN
            && (0..n_shards)
                .filter(|&s| !run_of(s).is_empty())
                .nth(1)
                .is_some()
        {
            if let Some(pool) = self.pool().filter(|p| p.is_active()) {
                let parallel_timer = self.metrics.fold_parallel_nanos.timer();
                pool.fold_batch(self, users, slots, values, &routed.idx, starts);
                drop(parallel_timer);
                return;
            }
        }
        for shard_idx in 0..n_shards {
            let run = run_of(shard_idx);
            if !run.is_empty() {
                self.fold_run(shard_idx, users, slots, values, run);
            }
        }
    }

    /// The in-process upload of one device's stream, what
    /// [`crate::CollectorSink`] delivers: `values[i]` is `user`'s report
    /// for slot `first_slot + i`, saturating at `u64::MAX`, so a row past
    /// the end of the slot space is dropped like any other row at or past
    /// `max_slots`. Non-finite values are refused as a client refuses them
    /// and booked as upstream rejections; the rest folds under one shard
    /// lock, each maximal finite run through
    /// [`ShardAccumulator::ingest_user_runs`], and no columns are written.
    /// Every book moves as [`Self::note_upstream_rejections`] plus
    /// [`Self::ingest`] of the stream's `ReportBatch::from_stream` would
    /// move it. Returns the number of reports accepted.
    pub(crate) fn ingest_stream(&self, user: u64, first_slot: u64, values: &[f64]) -> u64 {
        if !values.iter().any(|v| v.is_finite()) {
            // Nothing reaches the collector: the batch would be empty.
            self.note_upstream_rejections(values.len() as u64);
            return 0;
        }
        let fold_timer = self.metrics.fold_nanos.timer();
        let in_bounds = usize::try_from(self.max_slots.saturating_sub(first_slot))
            .map_or(values.len(), |rows| rows.min(values.len()));
        let (kept, past_bound) = values.split_at(in_bounds);
        // One pass over `kept`: the fold drains the split, which yields one
        // run more than `kept` holds non-finite values.
        let mut runs = 0u64;
        let mut slot = first_slot;
        let accepted = self.fold_user_runs(
            user,
            kept.split(|v| !v.is_finite()).map(|run| {
                runs += 1;
                let first = slot;
                // Past the last run this may pass `max_slots`; it is not read.
                slot = slot.wrapping_add(run.len() as u64 + 1);
                (first, run)
            }),
        );
        drop(fold_timer);
        let dropped = past_bound.iter().filter(|v| v.is_finite()).count() as u64;
        self.note_upstream_rejections(runs - 1 + (past_bound.len() as u64 - dropped));
        self.book(IngestOutcome {
            accepted,
            dropped,
            rejected: 0,
        });
        accepted
    }

    /// Folds one user's `(first_slot, values)` runs under the user's
    /// shard lock, advancing the shard's epoch and batch book once if
    /// anything folded. Returns the number of reports folded.
    fn fold_user_runs<'v>(
        &self,
        user: u64,
        runs: impl IntoIterator<Item = (u64, &'v [f64])>,
    ) -> u64 {
        let shard_idx = self.shard_of(user);
        let shard = &self.shards[shard_idx];
        let folded = shard
            .acc
            .lock()
            .expect("collector shard poisoned")
            .ingest_user_runs(user, runs);
        if folded > 0 {
            shard.epoch.fetch_add(1, Ordering::Release);
            self.metrics.shard_batches[shard_idx].inc();
        }
        folded
    }

    /// Books one non-empty batch's disposition.
    fn book(&self, tally: IngestOutcome) {
        self.metrics.batches.inc();
        self.metrics.accepted.add(tally.accepted);
        self.metrics.dropped.add(tally.dropped);
        self.metrics.rejected.add(tally.rejected);
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
    /// at ingest or already refused client-side (a fleet upload's
    /// non-finite values, or a wire frame's upstream rejection count).
    #[must_use]
    pub fn rejected_reports(&self) -> u64 {
        self.metrics.rejected.get()
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
    fn a_stream_running_off_the_slot_space_is_dropped_not_wrapped() {
        let values = [0.25, 0.5, 0.75];
        let by_batch = Collector::new(config(2));
        let out = by_batch.ingest_outcome(&ReportBatch::from_stream(1, u64::MAX - 1, &values));
        assert_eq!(
            out,
            IngestOutcome {
                accepted: 0,
                dropped: 3,
                rejected: 0
            }
        );
        let by_stream = Collector::new(config(2));
        assert_eq!(by_stream.ingest_stream(1, u64::MAX - 1, &values), 0);
        for c in [&by_batch, &by_stream] {
            assert_eq!(c.dropped_reports(), 3);
            assert_eq!(c.snapshot().slot_count(), 0, "slot 0 untouched");
        }
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
        assert_eq!(a.per_user_rows(), b.per_user_rows());
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
            let columns = ReportColumns::new(&users, &slots, &values);
            let reference = Collector::new(config(5));
            let chunked = Collector::new(config(5));
            let mut routed = RoutedBatch::default();
            let one_pass = reference.ingest_chunked(columns, ROUTE_CHUNK_ROWS, &mut routed);
            let many_pass = chunked.ingest_chunked(columns, chunk, &mut routed);
            assert_eq!(one_pass, many_pass, "n = {n}");
            assert_bit_identical(&reference, &chunked);
        }
    }

    #[test]
    fn uniform_multi_shard_batch_folds_without_scatter() {
        // All reports target one user (one shard) with screening mixed
        // in: the batch routes as that user's slot runs, with no counting
        // sort, and only the destination shard's epoch may advance.
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
        let mut routed = RoutedBatch::default();
        c.route(&batch, &mut routed);
        assert_eq!(routed.sole_user, Some(42));
        assert!(routed.idx.is_empty(), "a one-user batch is not scattered");
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
    fn single_destination_batch_touches_only_its_shard() {
        // Six users that share a shard, with screening mixed in: only the
        // destination shard's epoch may advance.
        let c = Collector::new(CollectorConfig {
            shards: 4,
            max_slots: 16,
            ..CollectorConfig::default()
        });
        let target = c.shard_of(42);
        let users: Vec<u64> = (42..)
            .filter(|&u| c.shard_of(u) == target)
            .take(6)
            .collect();
        let batch = ReportBatch::from_columns(
            users,
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
        for k in 0..4 {
            assert_eq!(c.shard_epoch(k), u64::from(k == target));
        }
    }

    #[test]
    fn parallel_fold_is_bit_identical_and_survives_pool_stop() {
        // Twice the threshold: ~78 % of the hostile rows are accepted.
        let (users, slots, values) = hostile_columns(2 * PARALLEL_FOLD_MIN, 99);
        let batch = ReportBatch::from_columns(users, slots, values);
        let serial = Collector::new(config(4));
        let parallel = Collector::new(CollectorConfig {
            shards: 4,
            ingest_workers: 2,
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

    /// A value code's report value: mostly finite, some NaN and ±∞.
    fn coded_value(code: usize) -> f64 {
        match code {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            code => code as f64 / 8.0 - 0.5,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn routed_on_one_thread_and_folded_on_another_equals_ingest_outcome(
            rows in proptest::collection::vec((0u64..12, 0u64..80, 0usize..10), 0..96),
            shape in 0usize..4,
            shards in 1usize..5,
        ) {
            let config = CollectorConfig {
                shards,
                max_slots: 64,
                ingest_workers: 2,
                ..CollectorConfig::default()
            };
            let (split, reference) = (Collector::new(config), Collector::new(config));
            let (mut users, mut slots, mut values) = (Vec::new(), Vec::new(), Vec::new());
            for &(user, slot, code) in &rows {
                users.push(user);
                slots.push(slot);
                values.push(coded_value(code));
            }
            match shape {
                // Every row from the first row's user.
                1 => users.iter_mut().for_each(|user| *user = rows[0].0),
                // Every row bound for the first row's shard.
                2 => {
                    let target = split.shard_of(rows.first().map_or(0, |row| row.0));
                    let mut mates = (0..).filter(|&user| split.shard_of(user) == target);
                    for user in &mut users {
                        *user = mates.next().expect("unbounded");
                    }
                }
                // Tiled past `PARALLEL_FOLD_MIN` rows, users spread across
                // shards, so a multi-shard collector folds through its pool.
                3 if !rows.is_empty() => {
                    let copies = 4 * PARALLEL_FOLD_MIN / rows.len() + 1;
                    users = (0..copies * rows.len()).map(|i| i as u64 % 1000).collect();
                    slots = slots.repeat(copies);
                    values = values.repeat(copies);
                }
                _ => {}
            }
            let batch = ReportBatch::from_columns(users, slots, values);
            for _ in 0..2 {
                let routed = std::thread::scope(|scope| {
                    scope
                        .spawn(|| {
                            let mut routed = RoutedBatch::default();
                            split.route(&batch, &mut routed);
                            routed
                        })
                        .join()
                        .expect("routing thread")
                });
                let folded = split.fold_routed(&batch, &routed);
                proptest::prop_assert_eq!(folded, routed.outcome);
                proptest::prop_assert_eq!(folded, reference.ingest_outcome(&batch));
            }
            proptest::prop_assert!(split.encode_checkpoint() == reference.encode_checkpoint());
            if shards > 1 && split.total_reports() >= 2 * PARALLEL_FOLD_MIN as u64 {
                let pool_runs = split.telemetry().snapshot().counter("collector.pool.runs");
                proptest::prop_assert!(pool_runs > Some(0), "the pool folded no routed run");
            }
        }
    }

    #[test]
    fn fold_pool_is_never_larger_than_the_shards_can_use() {
        // Nothing is ingested: a pool-qualifying batch would spawn every
        // worker the field holds.
        for (shards, asked, kept) in [(2, 10_000, 1), (1, 4, 0), (4, 2, 2)] {
            let c = Collector::new(CollectorConfig {
                shards,
                ingest_workers: asked,
                ..CollectorConfig::default()
            });
            assert_eq!(
                c.ingest_workers, kept,
                "{shards} shards, {asked} workers asked"
            );
        }
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
