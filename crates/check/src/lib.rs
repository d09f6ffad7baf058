//! `ldp-check` — in-tree deterministic concurrency checker.
//!
//! A loom/shuttle-style schedule explorer built only on `std` (same
//! no-registry discipline as `crates/shims`). A test body runs under a
//! cooperative scheduler that serializes its threads: every instrumented
//! sync operation ([`sync`] re-implements `Mutex`, `RwLock`, `Condvar`,
//! atomics, and `thread` spawn/park/unpark) is a scheduling point where a
//! seeded PCG picks the next thread to run. Exploring many seeds
//! systematically varies the interleaving; every nondeterministic decision
//! is recorded as a compact [`Trace`] so a failing schedule replays
//! deterministically:
//!
//! ```no_run
//! use ldp_check::{check, Config};
//! use ldp_check::sync::{atomic::{AtomicU64, Ordering}, Arc};
//!
//! check("counter-is-exact", &Config::default(), || {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = Arc::clone(&n);
//!             ldp_check::sync::thread::spawn(move || {
//!                 n.fetch_add(1, Ordering::SeqCst);
//!             })
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join().unwrap();
//!     }
//!     assert_eq!(n.load(Ordering::SeqCst), 2);
//! });
//! ```
//!
//! On failure, [`check`] panics with a `LDP_CHECK_REPLAY=<trace>` line;
//! re-running that one test with the variable set replays the identical
//! interleaving. Env knobs: `LDP_CHECK_EXECUTIONS` overrides the execution
//! budget, `LDP_CHECK_REPLAY` switches [`check`] into replay mode.
//!
//! **Limits.** The checker serializes threads, so it explores sequentially
//! consistent interleavings only — weak-memory reorderings are out of scope.
//! `park_timeout` deadlines fire only when no other thread is runnable, and
//! `sleep` is a plain scheduling point, so time-dependent logic is explored
//! structurally, not temporally. Lock identity is the primitive's address,
//! valid for the lifetime of one execution.

#![forbid(unsafe_code)]

mod rng;
mod sched;
pub mod sync;
mod trace;

pub use trace::{Trace, TraceParseError};

use sched::{Execution, FailKind, PolicyKind};
use std::sync::Arc;

/// Scheduling policy for exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Uniform random pick among runnable threads at each scheduling point.
    RandomWalk,
    /// PCT-style priority scheduling: random static priorities plus
    /// `depth - 1` random change points that demote the running thread.
    /// Finds bugs of preemption depth `depth` with provable probability.
    Pct { depth: u32 },
}

/// Exploration budget and scheduling knobs.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of schedules to explore (overridden by `LDP_CHECK_EXECUTIONS`).
    pub executions: u32,
    /// Base seed; each execution derives its own seed from it.
    pub seed: u64,
    /// Per-execution scheduling-point budget; exceeding it is reported as a
    /// possible livelock.
    pub max_steps: u64,
    pub policy: Policy,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            executions: 200,
            seed: 0x01d9_5eed,
            max_steps: 20_000,
            policy: Policy::RandomWalk,
        }
    }
}

impl Config {
    pub fn new() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn executions(mut self, n: u32) -> Self {
        self.executions = n;
        self
    }

    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    #[must_use]
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    fn effective_executions(&self) -> u32 {
        std::env::var("LDP_CHECK_EXECUTIONS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(self.executions)
    }
}

/// Why an execution failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The test body panicked (assertion failure, index error, …).
    Panic,
    /// Every live thread was blocked.
    Deadlock,
    /// The per-execution step budget ran out (possible livelock).
    StepBudget,
    /// A replayed trace did not match the execution (nondeterministic body,
    /// or trace from a different test).
    TraceDivergence,
}

/// A failing execution: everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Index of the failing execution within the exploration run.
    pub execution: u32,
    /// Derived seed of the failing execution.
    pub seed: u64,
    pub kind: FailureKind,
    pub message: String,
    /// The recorded schedule; feed to [`replay`] or `LDP_CHECK_REPLAY`.
    pub trace: Trace,
}

/// Result of [`explore`] / [`replay`].
#[derive(Clone, Debug)]
pub enum Outcome {
    Passed { executions: u32 },
    Failed(Failure),
}

impl Outcome {
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            Outcome::Passed { .. } => None,
            Outcome::Failed(f) => Some(f),
        }
    }
}

fn exec_seed(base: u64, index: u32) -> u64 {
    // SplitMix64 finalizer over (base, index) so nearby bases decorrelate.
    let mut z = base
        .wrapping_add(u64::from(index).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Suppress the default panic-hook output for the checker's internal
/// [`sched::Aborted`] unwind sentinel; real test panics still print.
fn install_abort_filter() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<sched::Aborted>() {
                return;
            }
            prev(info);
        }));
    });
}

fn map_kind(kind: FailKind) -> FailureKind {
    match kind {
        FailKind::Panic => FailureKind::Panic,
        FailKind::Deadlock => FailureKind::Deadlock,
        FailKind::StepBudget => FailureKind::StepBudget,
        FailKind::TraceDivergence => FailureKind::TraceDivergence,
    }
}

/// Runs one execution; returns the failure (if any) and the number of
/// scheduling points it took, which feeds the next execution's PCT horizon.
fn run_one<F>(
    config: &Config,
    seed: u64,
    horizon: u64,
    replay_trace: Option<Vec<u32>>,
    body: Arc<F>,
    index: u32,
) -> (Option<Failure>, u64)
where
    F: Fn() + Send + Sync + 'static,
{
    let (policy, depth) = match config.policy {
        Policy::RandomWalk => (PolicyKind::RandomWalk, 0),
        Policy::Pct { depth } => (PolicyKind::Pct, depth),
    };
    let exec = Arc::new(Execution::new(
        seed,
        policy,
        depth,
        config.max_steps,
        horizon,
        replay_trace,
    ));
    let (os, _tid) = sync::spawn_checked(&exec, Some("ldp-check-root".to_string()), move || {
        (body)();
    })
    .expect("ldp-check: failed to spawn root thread");
    let (failure, _trace, steps) = exec.wait_all();
    let _ = os.join();
    let failure = failure.map(|f| Failure {
        execution: index,
        seed,
        kind: map_kind(f.kind),
        message: f.message,
        trace: Trace::from_decisions(f.trace),
    });
    (failure, steps)
}

/// Explore up to `config.executions` schedules of `body`. Stops at the first
/// failing schedule.
pub fn explore<F>(config: &Config, body: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    install_abort_filter();
    let body = Arc::new(body);
    let executions = config.effective_executions();
    let mut horizon = 64;
    for index in 0..executions {
        let seed = exec_seed(config.seed, index);
        let (failure, steps) = run_one(config, seed, horizon, None, Arc::clone(&body), index);
        if let Some(failure) = failure {
            return Outcome::Failed(failure);
        }
        horizon = steps.max(1);
    }
    Outcome::Passed { executions }
}

/// Deterministically replay one recorded schedule against `body`.
pub fn replay<F>(trace: &Trace, body: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    install_abort_filter();
    let body = Arc::new(body);
    let decisions = trace.decisions().to_vec();
    match run_one(&Config::default(), 0, 64, Some(decisions), body, 0) {
        (Some(failure), _) => Outcome::Failed(failure),
        (None, _) => Outcome::Passed { executions: 1 },
    }
}

/// Test-harness entry point: explore, and on failure panic with a
/// `LDP_CHECK_REPLAY=<trace>` reproduction line. When `LDP_CHECK_REPLAY` is
/// set in the environment, replay that trace instead (run a *single* test,
/// e.g. `cargo test --test schedule_exploration -- --exact <name>`, since the
/// variable applies to every `check` call in the process).
pub fn check<F>(name: &str, config: &Config, body: F)
where
    F: Fn() + Send + Sync + 'static,
{
    if let Ok(raw) = std::env::var("LDP_CHECK_REPLAY") {
        let trace: Trace = raw
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("ldp-check[{name}]: bad LDP_CHECK_REPLAY trace: {e}"));
        match replay(&trace, body) {
            Outcome::Passed { .. } => {
                println!("ldp-check[{name}]: replay completed without failure");
            }
            Outcome::Failed(f) => panic!(
                "ldp-check[{name}]: replayed {:?}: {}\nLDP_CHECK_REPLAY={}",
                f.kind, f.message, f.trace
            ),
        }
        return;
    }
    match explore(config, body) {
        Outcome::Passed { .. } => {}
        Outcome::Failed(f) => panic!(
            "ldp-check[{name}]: {:?} at execution {} (seed {:#x}): {}\n\
             reproduce deterministically with:\n  LDP_CHECK_REPLAY={}",
            f.kind, f.execution, f.seed, f.message, f.trace
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sync::atomic::{AtomicU64, Ordering};
    use sync::{thread, Arc, Condvar, Mutex};

    fn quick() -> Config {
        Config::default().executions(300).seed(7)
    }

    /// Unsynchronized read-modify-write: the explorer must interleave the
    /// two threads between load and store in some schedule.
    fn racy_body() {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    }

    #[test]
    fn finds_lost_update() {
        let outcome = explore(&quick(), racy_body);
        let failure = outcome.failure().expect("explorer should find the race");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(
            failure.message.contains("lost update"),
            "{}",
            failure.message
        );
    }

    #[test]
    fn replay_reproduces_identical_failure() {
        let outcome = explore(&quick(), racy_body);
        let failure = outcome.failure().expect("explorer should find the race");
        for _ in 0..2 {
            let replayed = replay(&failure.trace, racy_body);
            let rf = replayed.failure().expect("replay should fail too");
            assert_eq!(rf.kind, FailureKind::Panic);
            assert_eq!(rf.message, failure.message);
            assert_eq!(rf.trace, failure.trace, "replay must follow the trace");
        }
    }

    #[test]
    fn trace_string_round_trips_through_display() {
        let outcome = explore(&quick(), racy_body);
        let failure = outcome.failure().expect("explorer should find the race");
        let parsed: Trace = failure.trace.to_string().parse().expect("parse");
        assert_eq!(parsed, failure.trace);
    }

    #[test]
    fn atomic_rmw_passes() {
        let outcome = explore(&quick(), || {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        n.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 2);
        });
        assert!(outcome.failure().is_none());
    }

    #[test]
    fn mutex_guards_critical_section() {
        let outcome = explore(&quick(), || {
            let n = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        let mut g = n.lock().unwrap();
                        let v = *g;
                        *g = v + 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*n.lock().unwrap(), 3);
        });
        assert!(outcome.failure().is_none(), "{:?}", outcome.failure());
    }

    #[test]
    fn detects_ab_ba_deadlock() {
        let outcome = explore(&Config::default().executions(500).seed(11), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_ga, _gb));
            let _ = t.join();
        });
        let failure = outcome.failure().expect("AB-BA deadlock should be found");
        assert_eq!(failure.kind, FailureKind::Deadlock);
    }

    #[test]
    fn condvar_handoff_works() {
        let outcome = explore(&quick(), || {
            let slot = Arc::new((Mutex::new(None::<u64>), Condvar::new()));
            let slot2 = Arc::clone(&slot);
            let producer = thread::spawn(move || {
                let (lock, cv) = &*slot2;
                *lock.lock().unwrap() = Some(42);
                cv.notify_one();
            });
            let (lock, cv) = &*slot;
            let mut g = lock.lock().unwrap();
            while g.is_none() {
                g = cv.wait(g).unwrap();
            }
            assert_eq!(*g, Some(42));
            drop(g);
            producer.join().unwrap();
        });
        assert!(outcome.failure().is_none(), "{:?}", outcome.failure());
    }

    #[test]
    fn park_unpark_completion() {
        let outcome = explore(&quick(), || {
            let done = Arc::new(AtomicU64::new(0));
            let done2 = Arc::clone(&done);
            let me = thread::current();
            let t = thread::spawn(move || {
                done2.store(1, Ordering::SeqCst);
                me.unpark();
            });
            while done.load(Ordering::SeqCst) == 0 {
                thread::park_timeout(std::time::Duration::from_micros(50));
            }
            t.join().unwrap();
        });
        assert!(outcome.failure().is_none(), "{:?}", outcome.failure());
    }

    #[test]
    fn pct_policy_finds_lost_update() {
        let config = Config::default()
            .executions(500)
            .seed(3)
            .policy(Policy::Pct { depth: 3 });
        let outcome = explore(&config, racy_body);
        assert!(outcome.failure().is_some(), "PCT should find the race");
    }
}
