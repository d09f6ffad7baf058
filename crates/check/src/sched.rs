//! Cooperative scheduler: serializes checked threads and explores
//! interleavings.
//!
//! Exactly one checked thread holds the *token* (is `running`) at any moment;
//! everyone else sits in a condvar wait on the shared [`Execution`] state.
//! Every instrumented sync operation is a *scheduling point*: the running
//! thread re-enters the scheduler, which picks the next thread to run from the
//! seeded PCG (or from a replay trace) and hands the token over. Because the
//! real `std` primitives underneath are only ever touched by the token holder,
//! the whole execution is deterministic given the decision sequence.

use crate::rng::Pcg32;
use std::collections::HashMap;
use std::panic::panic_any;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Sentinel panic payload used to unwind checked threads when the execution
/// aborts (failure found elsewhere). Never reported as a test panic.
pub(crate) struct Aborted;

/// What a blocked thread is waiting for. Lock identity is the address of the
/// facade primitive, which is stable for the lifetime of one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockOn {
    Mutex(usize),
    RwRead(usize),
    RwWrite(usize),
    Condvar(usize),
    Join(u32),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TState {
    Runnable,
    /// `thread::park` with no token available.
    Parked,
    /// `thread::park_timeout`: eligible to "time out" (be woken by the
    /// scheduler) only when no thread is runnable, which keeps exploration
    /// from livelocking on belt-and-braces park loops.
    ParkedTimeout,
    Blocked(BlockOn),
    Finished,
}

struct ThreadRec {
    state: TState,
    park_token: bool,
    priority: i64,
    name: Option<String>,
}

#[derive(Default)]
struct LockRec {
    writer: Option<u32>,
    readers: u32,
}

/// Scheduling policy for one execution.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PolicyKind {
    /// Uniform random pick among runnable threads at every step.
    RandomWalk,
    /// PCT-style: random static priorities, `depth - 1` change points that
    /// demote the running thread; always run the highest-priority runnable.
    Pct,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FailKind {
    Panic,
    Deadlock,
    StepBudget,
    TraceDivergence,
}

pub(crate) struct FailureRec {
    pub kind: FailKind,
    pub message: String,
    pub trace: Vec<u32>,
}

struct SchedState {
    threads: Vec<ThreadRec>,
    running: usize,
    live: usize,
    steps: u64,
    max_steps: u64,
    rng: Pcg32,
    policy: PolicyKind,
    change_points: Vec<u64>,
    next_low: i64,
    trace: Vec<u32>,
    replay: Option<Vec<u32>>,
    cursor: usize,
    locks: HashMap<usize, LockRec>,
    failure: Option<FailureRec>,
    aborting: bool,
}

/// One checked execution: scheduler state shared by all checked threads.
pub(crate) struct Execution {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Execution {
    pub(crate) fn new(
        seed: u64,
        policy: PolicyKind,
        pct_depth: u32,
        max_steps: u64,
        horizon: u64,
        replay: Option<Vec<u32>>,
    ) -> Self {
        let mut rng = Pcg32::new(seed, PCG_STREAM);
        let mut change_points = Vec::new();
        if matches!(policy, PolicyKind::Pct) {
            // PCT samples its priority-change points over the expected
            // execution length (the caller feeds back the previous
            // execution's step count), not the step *budget* — against the
            // budget they would almost never land inside the execution.
            for _ in 0..pct_depth.saturating_sub(1) {
                change_points.push(rng.next_u64() % horizon.clamp(1, max_steps.max(1)));
            }
            change_points.sort_unstable();
        }
        Execution {
            state: Mutex::new(SchedState {
                threads: Vec::new(),
                running: 0,
                live: 0,
                steps: 0,
                max_steps,
                rng,
                policy,
                change_points,
                next_low: -1,
                trace: Vec::new(),
                replay,
                cursor: 0,
                locks: HashMap::new(),
                failure: None,
                aborting: false,
            }),
            cv: Condvar::new(),
        }
    }

    // ---- registration / lifecycle -------------------------------------

    /// Register a new checked thread (Runnable). Returns its tid.
    pub(crate) fn register_thread(&self, name: Option<String>) -> u32 {
        let mut st = self.lock();
        let tid = st.threads.len() as u32;
        let priority = i64::from(st.rng.next_u32());
        st.threads.push(ThreadRec {
            state: TState::Runnable,
            park_token: false,
            priority,
            name,
        });
        st.live += 1;
        tid
    }

    /// Block until this thread holds the token. Panics with [`Aborted`] if the
    /// execution is shutting down. Must run inside the wrapper's
    /// `catch_unwind` so the finish protocol still runs.
    pub(crate) fn wait_for_token(&self, me: u32) {
        let st = self.lock();
        self.wait_runnable(st, me);
    }

    /// Thread finish protocol. `panic_message` is `Some` only for a real test
    /// panic (not the [`Aborted`] sentinel).
    pub(crate) fn finish(&self, me: u32, panic_message: Option<String>) {
        let mut st = self.lock();
        if let Some(message) = panic_message {
            fail(&mut st, FailKind::Panic, message);
        }
        for t in st.threads.iter_mut() {
            if t.state == TState::Blocked(BlockOn::Join(me)) {
                t.state = TState::Runnable;
            }
        }
        st.threads[me as usize].state = TState::Finished;
        st.live -= 1;
        if !st.aborting && st.live > 0 {
            self.schedule(&mut st);
        }
        self.cv.notify_all();
    }

    /// Controller side: wait until every checked thread has finished, then
    /// return the failure (if any) and the recorded trace.
    pub(crate) fn wait_all(&self) -> (Option<FailureRec>, Vec<u32>, u64) {
        let mut st = self.lock();
        while st.live > 0 {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let failure = st.failure.take();
        (failure, std::mem::take(&mut st.trace), st.steps)
    }

    // ---- scheduling points --------------------------------------------

    /// Plain scheduling point: the running thread offers the token.
    pub(crate) fn yield_point(&self, me: u32) {
        let mut st = self.lock();
        self.abort_check(&st);
        self.schedule(&mut st);
        self.wait_runnable(st, me);
    }

    // ---- mutex ---------------------------------------------------------

    pub(crate) fn acquire_mutex(&self, me: u32, addr: usize) {
        self.yield_point(me);
        self.acquire_mutex_here(me, addr);
    }

    /// Mutex acquisition without the leading yield (used by condvar
    /// re-acquire, which is already at a scheduling point).
    fn acquire_mutex_here(&self, me: u32, addr: usize) {
        loop {
            let mut st = self.lock();
            self.abort_check(&st);
            let rec = st.locks.entry(addr).or_default();
            if rec.writer.is_none() && rec.readers == 0 {
                rec.writer = Some(me);
                return;
            }
            st.threads[me as usize].state = TState::Blocked(BlockOn::Mutex(addr));
            self.schedule(&mut st);
            self.wait_runnable(st, me);
        }
    }

    pub(crate) fn release_mutex(&self, me: u32, addr: usize, panicking: bool) {
        {
            let mut st = self.lock();
            let rec = st.locks.entry(addr).or_default();
            debug_assert_eq!(rec.writer, Some(me), "mutex released by non-owner");
            rec.writer = None;
            wake_blocked_on(&mut st, BlockOn::Mutex(addr));
            self.cv.notify_all();
        }
        if !panicking {
            self.yield_point(me);
        }
    }

    // ---- rwlock --------------------------------------------------------

    pub(crate) fn acquire_read(&self, me: u32, addr: usize) {
        self.yield_point(me);
        loop {
            let mut st = self.lock();
            self.abort_check(&st);
            let rec = st.locks.entry(addr).or_default();
            if rec.writer.is_none() {
                rec.readers += 1;
                return;
            }
            st.threads[me as usize].state = TState::Blocked(BlockOn::RwRead(addr));
            self.schedule(&mut st);
            self.wait_runnable(st, me);
        }
    }

    pub(crate) fn release_read(&self, me: u32, addr: usize, panicking: bool) {
        {
            let mut st = self.lock();
            let rec = st.locks.entry(addr).or_default();
            debug_assert!(rec.readers > 0, "rwlock read released with no readers");
            rec.readers -= 1;
            wake_blocked_on(&mut st, BlockOn::RwWrite(addr));
            self.cv.notify_all();
        }
        if !panicking {
            self.yield_point(me);
        }
    }

    pub(crate) fn acquire_write(&self, me: u32, addr: usize) {
        self.yield_point(me);
        loop {
            let mut st = self.lock();
            self.abort_check(&st);
            let rec = st.locks.entry(addr).or_default();
            if rec.writer.is_none() && rec.readers == 0 {
                rec.writer = Some(me);
                return;
            }
            st.threads[me as usize].state = TState::Blocked(BlockOn::RwWrite(addr));
            self.schedule(&mut st);
            self.wait_runnable(st, me);
        }
    }

    pub(crate) fn release_write(&self, me: u32, addr: usize, panicking: bool) {
        {
            let mut st = self.lock();
            let rec = st.locks.entry(addr).or_default();
            debug_assert_eq!(rec.writer, Some(me), "rwlock write released by non-owner");
            rec.writer = None;
            wake_blocked_on(&mut st, BlockOn::RwRead(addr));
            wake_blocked_on(&mut st, BlockOn::RwWrite(addr));
            self.cv.notify_all();
        }
        if !panicking {
            self.yield_point(me);
        }
    }

    // ---- condvar -------------------------------------------------------

    /// Atomically release mutex `m_addr`, block on condvar `cv_addr`, and on
    /// wakeup re-acquire the mutex (scheduler bookkeeping only — the caller
    /// handles the real `std` guard).
    pub(crate) fn condvar_wait(&self, me: u32, cv_addr: usize, m_addr: usize) {
        {
            let mut st = self.lock();
            self.abort_check(&st);
            let rec = st.locks.entry(m_addr).or_default();
            debug_assert_eq!(rec.writer, Some(me), "condvar wait without the mutex");
            rec.writer = None;
            wake_blocked_on(&mut st, BlockOn::Mutex(m_addr));
            st.threads[me as usize].state = TState::Blocked(BlockOn::Condvar(cv_addr));
            self.schedule(&mut st);
            self.wait_runnable(st, me);
        }
        self.acquire_mutex_here(me, m_addr);
    }

    /// Wake one condvar waiter. Which waiter is a recorded nondeterministic
    /// decision (replayed verbatim).
    pub(crate) fn notify_one(&self, me: u32, cv_addr: usize) {
        {
            let mut st = self.lock();
            self.abort_check(&st);
            let waiters: Vec<u32> = blocked_on(&st, BlockOn::Condvar(cv_addr));
            if !waiters.is_empty() {
                let victim = if st.replay.is_some() {
                    match self.replay_next(&mut st, &waiters) {
                        Some(v) => v,
                        None => return,
                    }
                } else {
                    let idx = st.rng.below(waiters.len());
                    waiters[idx]
                };
                st.trace.push(victim);
                st.threads[victim as usize].state = TState::Runnable;
                self.cv.notify_all();
            }
        }
        self.yield_point(me);
    }

    pub(crate) fn notify_all_waiters(&self, me: u32, cv_addr: usize) {
        {
            let mut st = self.lock();
            self.abort_check(&st);
            wake_blocked_on(&mut st, BlockOn::Condvar(cv_addr));
            self.cv.notify_all();
        }
        self.yield_point(me);
    }

    // ---- park / unpark -------------------------------------------------

    pub(crate) fn park(&self, me: u32, timeout: bool) {
        let mut st = self.lock();
        self.abort_check(&st);
        if st.threads[me as usize].park_token {
            st.threads[me as usize].park_token = false;
            self.schedule(&mut st);
            self.wait_runnable(st, me);
            return;
        }
        st.threads[me as usize].state = if timeout {
            TState::ParkedTimeout
        } else {
            TState::Parked
        };
        self.schedule(&mut st);
        let mut st = self.wait_runnable_keep(st, me);
        st.threads[me as usize].park_token = false;
    }

    pub(crate) fn unpark(&self, me: Option<u32>, target: u32) {
        {
            let mut st = self.lock();
            let t = &mut st.threads[target as usize];
            match t.state {
                TState::Parked | TState::ParkedTimeout => t.state = TState::Runnable,
                TState::Finished => {}
                _ => t.park_token = true,
            }
            self.cv.notify_all();
        }
        // `unpark` may be called from an unchecked thread (e.g. a drop on the
        // controller); only checked callers yield.
        if let Some(me) = me {
            if !std::thread::panicking() {
                self.yield_point(me);
            }
        }
    }

    // ---- join ----------------------------------------------------------

    pub(crate) fn join_wait(&self, me: u32, target: u32) {
        let mut st = self.lock();
        self.abort_check(&st);
        if st.threads[target as usize].state != TState::Finished {
            st.threads[me as usize].state = TState::Blocked(BlockOn::Join(target));
            self.schedule(&mut st);
            self.wait_runnable(st, me);
        } else {
            self.schedule(&mut st);
            self.wait_runnable(st, me);
        }
    }

    // ---- internals -----------------------------------------------------

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn abort_check(&self, st: &SchedState) {
        if st.aborting {
            panic_any(Aborted);
        }
    }

    fn wait_runnable(&self, st: MutexGuard<'_, SchedState>, me: u32) {
        drop(self.wait_runnable_keep(st, me));
    }

    fn wait_runnable_keep<'a>(
        &'a self,
        mut st: MutexGuard<'a, SchedState>,
        me: u32,
    ) -> MutexGuard<'a, SchedState> {
        loop {
            if st.aborting {
                drop(st);
                panic_any(Aborted);
            }
            if st.running == me as usize && st.threads[me as usize].state == TState::Runnable {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn replay_next(&self, st: &mut SchedState, candidates: &[u32]) -> Option<u32> {
        let cursor = st.cursor;
        let entry = st.replay.as_ref().and_then(|r| r.get(cursor)).copied();
        match entry {
            Some(tid) if candidates.contains(&tid) => {
                st.cursor += 1;
                Some(tid)
            }
            Some(tid) => {
                fail(
                    st,
                    FailKind::TraceDivergence,
                    format!(
                        "replay divergence at decision {cursor}: trace says thread {tid}, \
                         candidates are {candidates:?}"
                    ),
                );
                self.cv.notify_all();
                None
            }
            None => {
                fail(
                    st,
                    FailKind::TraceDivergence,
                    format!("replay trace exhausted at decision {cursor}"),
                );
                self.cv.notify_all();
                None
            }
        }
    }

    /// Pick the next thread to run and hand it the token. Called with the
    /// state lock held at every scheduling point.
    fn schedule(&self, st: &mut SchedState) {
        if st.aborting {
            return;
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let msg = format!(
                "step budget exhausted ({} scheduling points) — possible livelock",
                st.max_steps
            );
            fail(st, FailKind::StepBudget, msg);
            self.cv.notify_all();
            return;
        }
        let mut candidates: Vec<u32> = runnable(st);
        let timeout_fired = candidates.is_empty();
        if timeout_fired {
            candidates = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == TState::ParkedTimeout)
                .map(|(i, _)| i as u32)
                .collect();
        }
        if candidates.is_empty() {
            if st.live > 0 {
                let msg = deadlock_message(st);
                fail(st, FailKind::Deadlock, msg);
            }
            self.cv.notify_all();
            return;
        }
        let choice = if st.replay.is_some() {
            match self.replay_next(st, &candidates) {
                Some(tid) => tid,
                None => return,
            }
        } else {
            pick(st, &candidates)
        };
        if timeout_fired {
            st.threads[choice as usize].state = TState::Runnable;
        }
        st.trace.push(choice);
        st.running = choice as usize;
        self.cv.notify_all();
    }
}

/// Stream selector for the scheduler PCG.
const PCG_STREAM: u64 = 0x1d9;

fn runnable(st: &SchedState) -> Vec<u32> {
    st.threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.state == TState::Runnable)
        .map(|(i, _)| i as u32)
        .collect()
}

fn blocked_on(st: &SchedState, on: BlockOn) -> Vec<u32> {
    st.threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.state == TState::Blocked(on))
        .map(|(i, _)| i as u32)
        .collect()
}

fn wake_blocked_on(st: &mut SchedState, on: BlockOn) {
    for t in st.threads.iter_mut() {
        if t.state == TState::Blocked(on) {
            t.state = TState::Runnable;
        }
    }
}

fn fail(st: &mut SchedState, kind: FailKind, message: String) {
    if st.failure.is_none() {
        st.failure = Some(FailureRec {
            kind,
            message,
            trace: st.trace.clone(),
        });
    }
    st.aborting = true;
}

fn pick(st: &mut SchedState, candidates: &[u32]) -> u32 {
    let current = st.running as u32;
    match st.policy {
        PolicyKind::RandomWalk => candidates[st.rng.below(candidates.len())],
        PolicyKind::Pct => {
            if st.change_points.binary_search(&st.steps).is_ok() {
                let low = st.next_low;
                st.next_low -= 1;
                st.threads[current as usize].priority = low;
            }
            *candidates
                .iter()
                .max_by_key(|&&tid| st.threads[tid as usize].priority)
                .expect("candidates non-empty")
        }
    }
}

fn deadlock_message(st: &SchedState) -> String {
    let mut parts = Vec::new();
    for (i, t) in st.threads.iter().enumerate() {
        if matches!(t.state, TState::Finished) {
            continue;
        }
        let name = t.name.as_deref().unwrap_or("<unnamed>");
        parts.push(format!("thread {i} ({name}): {:?}", t.state));
    }
    format!(
        "deadlock: no runnable thread among live threads [{}]",
        parts.join("; ")
    )
}
