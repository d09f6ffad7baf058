//! The work-stealing parallel ingest pool: one hot connection saturates
//! every core.
//!
//! PR 5 turned multi-shard routing into a counting sort that leaves a
//! batch as **contiguous per-shard index runs** — but a single
//! connection still folded those runs serially, one core doing all the
//! accumulator work while the other shards' locks sat idle. This module
//! applies the two-pass bucket-then-steal shape (sequential partition,
//! then work-stealing parallel recursion over the buckets) collector-
//! side: the routing pass stays exactly as it was, and the fold pass
//! hands each run to a bounded injector that `N` worker threads — plus
//! the submitting thread itself — drain concurrently.
//!
//! ```text
//!  conn thread ── route (counting sort) ──▶ per-shard runs
//!       │                                        │
//!       │                 ┌──────────────────────┴──────┐
//!       │                 ▼      bounded injector       │ overflow runs
//!       │           [run][run][run] … (cap 1024)        │ fold inline
//!       │            │        │        │                ▼
//!       │            ▼        ▼        ▼          (submitter)
//!       │         worker   worker   submitter
//!       │         (steal)  (steal)  (fold-own, then steal)
//!       └── parks until the batch's completion counter drains ──▶ returns
//! ```
//!
//! Determinism: a run is folded **by exactly one thread, in index
//! order**, and runs for different shards touch disjoint accumulators —
//! so the resulting shard state is bit-identical to a serial fold no
//! matter which thread stole which run. [`IngestPool::fold_batch`] does
//! not return until every run of its batch has been folded, which keeps
//! the per-batch [`crate::IngestOutcome`] ledger and the server's
//! IngestSync/Ack barrier semantics exactly as they were.
//!
//! Everything here is std-only (`Mutex` + `Condvar` injector,
//! `park_timeout` completion wait) — same discipline as `crates/shims`:
//! no registry dependencies. Sync primitives come from [`crate::sync`],
//! the facade that swaps in `ldp-check`'s instrumented types under
//! `cfg(ldp_check)` so schedule-exploration tests can drive this pool
//! through systematically varied interleavings.
//!
//! # Safety
//!
//! Run descriptors carry raw pointers into the submitting thread's batch
//! columns and routing scratch. This is sound because
//! [`IngestPool::fold_batch`] borrows those slices for its whole call
//! and does not return until the batch's completion counter drains: the
//! borrows outlive every descriptor, and each descriptor is consumed
//! exactly once (popped from the injector, or folded inline by the
//! submitter on injector overflow — never both).

use crate::engine::Collector;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::thread::{self, JoinHandle, Thread};
use crate::sync::{Arc, Condvar, Mutex};
use ldp_telemetry::{Counter, Gauge, Registry};
use std::collections::VecDeque;
use std::time::Duration;

/// Capacity of the bounded injector. The queue `VecDeque` is allocated
/// to this capacity once at pool start and never grows (pushes are
/// length-checked), keeping the steady state allocation-free. Overflow
/// runs are folded inline by their submitter — backpressure, not
/// blocking.
const INJECTOR_CAP: usize = 1024;

/// How long a submitter parks between completion-counter checks while
/// the injector is empty but its batch is still being folded by
/// workers. The final folder unparks it immediately; the timeout is a
/// belt-and-braces bound, not the expected wake path.
const SUBMITTER_PARK: Duration = Duration::from_micros(50);

/// Per-batch completion state, allocated on the **submitter's stack**
/// for the duration of one [`IngestPool::fold_batch`] call. Run
/// descriptors point back at this block; see the module-level safety
/// argument for why those pointers stay valid.
struct BatchControl {
    collector: *const Collector,
    users: *const u64,
    slots: *const u64,
    values: *const f64,
    /// Length of the three column slices above.
    rows: usize,
    /// The batch's scattered index runs (a `RoutedBatch`'s `idx`).
    idx: *const u32,
    /// Length of the `idx` slice (may be shorter than `rows` when the
    /// routing pass skipped rejected reports).
    idx_len: usize,
    /// Runs of this batch not yet folded; the submitter returns when
    /// this drains to zero.
    pending: AtomicUsize,
    /// Parked submitter to unpark when `pending` drains.
    submitter: Thread,
}

/// One contiguous per-shard fold run, queued in the injector.
#[derive(Clone, Copy)]
struct RunDesc {
    control: *const BatchControl,
    shard: u32,
    start: u32,
    len: u32,
}

// SAFETY: sending a `RunDesc` across threads is sound because of three
// invariants, all upheld by `IngestPool::fold_batch`:
//
// 1. **Liveness** — every pointer targets either the submitter's stack
//    frame (`control`) or slices borrowed for the whole `fold_batch`
//    call (`users`/`slots`/`values`/`idx` inside `BatchControl`). The
//    submitter does not return from `fold_batch` until the batch's
//    `pending` counter drains to zero, and a descriptor is unreachable
//    after its `fold` decrements that counter — so no thread can touch
//    the pointers after the frame is gone.
// 2. **Exclusivity** — a descriptor is consumed exactly once: it is
//    either pushed into the injector (popped by exactly one thread,
//    under the queue mutex) or folded inline by the submitter on
//    injector overflow, never both (the push loop records the overflow
//    suffix start while still holding the queue lock).
// 3. **Disjointness** — runs for different shards fold into different
//    `Mutex<ShardAccumulator>`s, and two runs of the same shard from
//    different batches serialize on that shard mutex, so concurrent
//    folds never alias mutable accumulator state.
unsafe impl Send for RunDesc {}

impl RunDesc {
    /// Folds this run into its shard and releases one unit of the
    /// batch's completion counter, unparking the submitter on the last.
    ///
    /// # Safety
    /// The descriptor's control block must still be live — guaranteed
    /// for every descriptor reachable from the injector, because the
    /// submitter that owns the control block is still inside
    /// `fold_batch` until `pending` drains.
    unsafe fn fold(self) {
        // SAFETY: caller contract — the control block (and through it the
        // collector and column slices) outlives this call; lengths are the
        // ones captured from the original borrows in `fold_batch`.
        let (collector, users, slots, values, run) = unsafe {
            let control = &*self.control;
            debug_assert!(
                self.start as usize + self.len as usize <= control.idx_len,
                "run [{}, {}) escapes the routed index block of {} entries",
                self.start,
                self.start as usize + self.len as usize,
                control.idx_len,
            );
            (
                &*control.collector,
                std::slice::from_raw_parts(control.users, control.rows),
                std::slice::from_raw_parts(control.slots, control.rows),
                std::slice::from_raw_parts(control.values, control.rows),
                std::slice::from_raw_parts(control.idx.add(self.start as usize), self.len as usize),
            )
        };
        // The routing scatter writes each shard's indices in ascending
        // row order; fold_run relies on that for deterministic,
        // bit-identical accumulation.
        debug_assert!(
            run.windows(2).all(|w| w[0] < w[1]),
            "shard {} run is not in ascending index order",
            self.shard
        );
        collector.fold_run(self.shard as usize, users, slots, values, run);
        // SAFETY: the control block is still live here — `pending` has
        // not yet been decremented for this run, so the submitter is
        // still blocked inside `fold_batch`.
        let control = unsafe { &*self.control };
        // Clone the submitter handle BEFORE releasing the count: the
        // moment `pending` hits zero the submitter may return and the
        // control block behind `self.control` ceases to exist.
        let submitter = control.submitter.clone();
        let prev = control.pending.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(
            prev >= 1,
            "batch completion counter underflow: shard {} run folded twice",
            self.shard
        );
        if prev == 1 {
            submitter.unpark();
        }
    }
}

/// The pool's registered telemetry handles (`collector.pool.*` in the
/// README metric catalog).
struct PoolMetrics {
    /// `collector.pool.runs` — fold runs dispatched through the pool.
    runs: Arc<Counter>,
    /// `collector.pool.steals` — runs folded by a thread other than
    /// their batch's submitter (worker pops, and submitters folding a
    /// *different* batch's run while waiting for their own).
    steals: Arc<Counter>,
    /// `collector.pool.queue_depth` — live injector depth.
    queue_depth: Arc<Gauge>,
    /// `collector.pool.workers_busy` — workers currently folding a run.
    workers_busy: Arc<Gauge>,
}

struct PoolShared {
    queue: Mutex<VecDeque<RunDesc>>,
    available: Condvar,
    shutdown: AtomicBool,
    metrics: PoolMetrics,
}

impl PoolShared {
    /// Pops one run, maintaining the depth gauge. Callers fold it.
    fn pop(&self) -> Option<RunDesc> {
        let mut queue = self.queue.lock().expect("ingest pool injector poisoned");
        let desc = queue.pop_front();
        if desc.is_some() {
            self.metrics.queue_depth.dec();
        }
        desc
    }
}

/// A work-stealing pool folding contiguous per-shard runs into a
/// [`Collector`]'s accumulators. One pool serves every thread that
/// ingests into its collector — server connection threads share it
/// through their shared `Arc<Collector>` automatically.
pub(crate) struct IngestPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for IngestPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestPool")
            .field("shutdown", &self.shared.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl IngestPool {
    /// Spawns `workers` stealing threads and registers the pool's
    /// metrics in `registry`.
    pub(crate) fn start(workers: usize, registry: &Registry) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::with_capacity(INJECTOR_CAP)),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: PoolMetrics {
                runs: registry.counter("collector.pool.runs"),
                steals: registry.counter("collector.pool.steals"),
                queue_depth: registry.gauge("collector.pool.queue_depth"),
                workers_busy: registry.gauge("collector.pool.workers_busy"),
            },
        });
        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ldp-ingest-{k:02}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn ingest pool worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Whether the pool still has (or will have) workers draining the
    /// injector. After [`Self::stop`] the engine folds serially again;
    /// a submit racing the flag is still safe — the submitter drains
    /// whatever it enqueued itself.
    pub(crate) fn is_active(&self) -> bool {
        !self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Folds one routed batch through the pool: enqueues its per-shard
    /// runs (folding any injector overflow inline), then participates —
    /// fold-own, then steal — until **this batch's** completion counter
    /// drains. On return every report of the batch is folded, so the
    /// caller's `IngestOutcome` ledger is exact, same as a serial fold.
    ///
    /// `starts` are the routing pass's run boundaries (`shards + 1`
    /// prefix sums) and `idx` the scattered per-shard index runs; both
    /// borrow the caller's [`crate::RoutedBatch`].
    pub(crate) fn fold_batch(
        &self,
        collector: &Collector,
        users: &[u64],
        slots: &[u64],
        values: &[f64],
        idx: &[u32],
        starts: &[u32],
    ) {
        let n_shards = starts.len() - 1;
        let run_bounds = |s: usize| (starts[s] as usize, starts[s + 1] as usize);
        let non_empty = (0..n_shards)
            .filter(|&s| {
                let (lo, hi) = run_bounds(s);
                hi > lo
            })
            .count();
        if non_empty == 0 {
            return;
        }
        let control = BatchControl {
            collector: collector as *const Collector,
            users: users.as_ptr(),
            slots: slots.as_ptr(),
            values: values.as_ptr(),
            rows: users.len(),
            idx: idx.as_ptr(),
            idx_len: idx.len(),
            pending: AtomicUsize::new(non_empty),
            submitter: thread::current(),
        };
        let control_ptr: *const BatchControl = &control;
        self.shared.metrics.runs.add(non_empty as u64);
        // Enqueue as many runs as the bounded injector accepts. The push
        // loop holds the queue lock, so once the injector is full it
        // stays full for the rest of the loop: the overflow is a
        // contiguous suffix of shards, remembered as one index.
        let mut overflow_from = n_shards;
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .expect("ingest pool injector poisoned");
            for s in 0..n_shards {
                let (lo, hi) = run_bounds(s);
                if hi == lo {
                    continue;
                }
                if queue.len() >= INJECTOR_CAP {
                    overflow_from = s;
                    break;
                }
                queue.push_back(RunDesc {
                    control: control_ptr,
                    shard: s as u32,
                    start: lo as u32,
                    len: (hi - lo) as u32,
                });
                self.shared.metrics.queue_depth.inc();
            }
        }
        self.shared.available.notify_all();
        // Overflow suffix: these runs were never enqueued, so no other
        // thread can claim them — fold them inline.
        for s in overflow_from..n_shards {
            let (lo, hi) = run_bounds(s);
            if hi == lo {
                continue;
            }
            collector.fold_run(s, users, slots, values, &idx[lo..hi]);
            let prev = control.pending.fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev >= 1, "overflow fold underflowed the batch counter");
        }
        // Participate until this batch drains: fold own runs, steal
        // other batches' runs while waiting (global progress — a parked
        // submitter never sits on work), park briefly when the injector
        // is empty but workers still hold runs of ours.
        while control.pending.load(Ordering::Acquire) > 0 {
            match self.shared.pop() {
                Some(desc) => {
                    if !std::ptr::eq(desc.control, control_ptr) {
                        self.shared.metrics.steals.inc();
                    }
                    // SAFETY: popped from the injector, so its batch's
                    // submitter is still inside fold_batch (module docs).
                    unsafe { desc.fold() };
                }
                None => thread::park_timeout(SUBMITTER_PARK),
            }
        }
    }

    /// Stops the workers: drains nothing, loses nothing. Workers keep
    /// popping until the injector is **empty** before they exit, and any
    /// run a submitter enqueues after that is folded by the submitter
    /// itself (its participation loop never returns early) — so every
    /// in-flight batch completes with its full ledger. Idempotent;
    /// called by `Drop` too.
    pub(crate) fn stop(&self) {
        {
            // Flag flip under the queue lock so a worker between its
            // empty-check and its condvar wait cannot miss the wakeup.
            let _queue = self
                .shared
                .queue
                .lock()
                .expect("ingest pool injector poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        let handles = {
            let mut workers = self.workers.lock().expect("ingest pool workers poisoned");
            std::mem::take(&mut *workers)
        };
        for handle in handles {
            // A worker that panicked poisoned a shard mutex; the next
            // shard access will surface that loudly.
            let _ = handle.join();
        }
    }
}

impl Drop for IngestPool {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let desc = {
            let mut queue = shared.queue.lock().expect("ingest pool injector poisoned");
            loop {
                if let Some(desc) = queue.pop_front() {
                    shared.metrics.queue_depth.dec();
                    break Some(desc);
                }
                // Shutdown is honored only once the injector is empty:
                // stopping the pool mid-stream must not strand a run.
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .expect("ingest pool injector poisoned");
            }
        };
        let Some(desc) = desc else { return };
        shared.metrics.steals.inc();
        shared.metrics.workers_busy.inc();
        // SAFETY: popped from the injector, so the batch's submitter is
        // still parked inside fold_batch (see module-level safety note).
        unsafe { desc.fold() };
        shared.metrics.workers_busy.dec();
    }
}
