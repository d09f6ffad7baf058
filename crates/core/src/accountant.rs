//! A w-event privacy accountant: a ledger of per-slot budget spends with
//! sliding-window verification.
//!
//! The algorithms in this crate spend budget according to fixed schedules
//! (`ε/w` per slot; `ε/n_w` per upload slot for PP-S). The accountant makes
//! those schedules explicit and lets tests assert Definition 3's
//! requirement: the spend inside *every* window of `w` slots sums to at
//! most ε.
//!
//! Only the last `w` spends ever matter for the guarantee, so the ledger
//! is an O(w) ring buffer with an incrementally maintained window sum and
//! running maximum: memory stays flat no matter how long the session runs
//! and [`WEventAccountant::max_window_spend`] is O(1) instead of a rescan
//! of the whole stream history.

use crate::Result;
use ldp_mechanisms::MechanismError;

/// The per-slot budget `ε/w` of the paper's w-event schedule: spending it
/// on every slot totals ε in any window of `w` slots (Theorem 3). Every
/// publisher configured by `(ε, w)` derives its slot budget here.
///
/// # Errors
/// [`MechanismError::InvalidEpsilon`] unless `0 < ε < ∞`;
/// [`MechanismError::InvalidWindow`] if `w == 0`.
pub fn slot_budget(epsilon: f64, w: usize) -> Result<f64> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(MechanismError::InvalidEpsilon(epsilon));
    }
    if w == 0 {
        return Err(MechanismError::InvalidWindow(w));
    }
    Ok(epsilon / w as f64)
}

/// Ledger of per-time-slot privacy spends over a sliding window.
///
/// Internally a ring buffer of the last `w` spends: [`Self::record`] (and
/// its batch form [`Self::record_run`]) adds the new slot to the window
/// sum, retires the spend that slid out, and folds the sum into a running
/// maximum — the exact sliding-sum recurrence a full-history scan would
/// compute, so the reported maximum is bit-identical to the
/// unbounded-ledger implementation it replaced.
#[derive(Debug, Clone)]
pub struct WEventAccountant {
    w: usize,
    budget: f64,
    /// Last `min(len, w)` spends; slot `i`'s spend lives at `i % w`.
    ring: Vec<f64>,
    /// Total slots recorded over the session lifetime.
    len: usize,
    /// Spend of the current (trailing) window of up to `w` slots.
    window_sum: f64,
    /// Largest trailing-window spend seen so far.
    max_spend: f64,
}

impl WEventAccountant {
    /// Creates an accountant for window size `w` and window budget `budget`.
    ///
    /// # Panics
    /// Panics if `w == 0` or the budget is not positive and finite.
    #[must_use]
    pub fn new(w: usize, budget: f64) -> Self {
        assert!(w > 0, "window size must be positive");
        assert!(
            budget.is_finite() && budget > 0.0,
            "budget must be positive"
        );
        Self {
            w,
            budget,
            ring: Vec::new(),
            len: 0,
            window_sum: 0.0,
            max_spend: 0.0,
        }
    }

    /// Window size `w`.
    #[must_use]
    pub fn window(&self) -> usize {
        self.w
    }

    /// Total budget allowed inside any window.
    #[must_use]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Records the spend of the next time slot (0 for slots with no report).
    ///
    /// # Panics
    /// Panics if `epsilon` is negative or not finite.
    pub fn record(&mut self, epsilon: f64) {
        self.record_run(epsilon, 1);
    }

    /// Records the same spend for each of the next `slots` time slots —
    /// the batch entry a session uses after publishing a whole run at a
    /// fixed per-slot budget. The ledger ends in exactly the state `slots`
    /// single [`Self::record`] calls leave: the spend is validated once,
    /// the ring position advances as a wrapping cursor, and the window sum
    /// and running maximum follow the per-slot recurrence — except that a
    /// long run stops iterating once the recurrence provably cycles (see
    /// the comment in the body), which a run at one budget does within a
    /// few laps of the ring.
    ///
    /// # Panics
    /// Panics if `epsilon` is negative or not finite.
    pub fn record_run(&mut self, epsilon: f64, slots: usize) {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "invalid spend");
        let mut left = slots;
        // Until the ring holds `w` spends, a slot only adds to the window.
        while left > 0 && self.ring.len() < self.w {
            self.window_sum += epsilon;
            self.ring.push(epsilon);
            self.max_spend = self.max_spend.max(self.window_sum);
            left -= 1;
        }
        // From then on a slot also retires the spend `w` slots back, whose
        // ring cell it claims. Walk the ring one lap (`w` slots) at a time.
        let mut cursor = (self.len + slots - left) % self.w;
        let (mut sum, mut max) = (self.window_sum, self.max_spend);
        while left > 0 {
            let lap = left.min(self.w);
            let lap_start_sum = sum;
            let mut retired_only_epsilon = true;
            for _ in 0..lap {
                let cell = &mut self.ring[cursor];
                retired_only_epsilon &= cell.to_bits() == epsilon.to_bits();
                sum += epsilon;
                sum -= *cell;
                *cell = epsilon;
                cursor = if cursor + 1 == self.w { 0 } else { cursor + 1 };
                max = max.max(sum);
            }
            left -= lap;
            if lap == self.w && retired_only_epsilon && sum.to_bits() == lap_start_sum.to_bits() {
                // A whole lap over a ring already full of `epsilon` that
                // brought the sum back to where it started: ring, cursor
                // and sum are what they were a lap ago, so every further
                // lap repeats this one — same sums, nothing new for the
                // maximum. Skip the whole laps left; the partial lap after
                // them still runs.
                left %= self.w;
            }
        }
        self.window_sum = sum;
        self.max_spend = max;
        self.len += slots;
    }

    /// Empties the ledger for a new stream under the same `(w, budget)`,
    /// keeping the ring's allocation.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.len = 0;
        self.window_sum = 0.0;
        self.max_spend = 0.0;
    }

    /// Number of recorded slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Spend of the current trailing window (the last `min(len, w)` slots).
    #[must_use]
    pub fn current_window_spend(&self) -> f64 {
        self.window_sum
    }

    /// The largest spend over any window of `w` consecutive slots
    /// (windows shorter than `w` at the stream tail are included — their
    /// spend is dominated by some full window anyway). O(1): the maximum
    /// is maintained incrementally by [`Self::record`].
    #[must_use]
    pub fn max_window_spend(&self) -> f64 {
        self.max_spend
    }

    /// Whether every window respects the budget (with a small floating-
    /// point tolerance).
    #[must_use]
    pub fn satisfies_w_event(&self) -> bool {
        self.max_window_spend() <= self.budget * (1.0 + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_slot_spend_exactly_fills_budget() {
        let mut acc = WEventAccountant::new(10, 1.0);
        for _ in 0..100 {
            acc.record(0.1);
        }
        assert!((acc.max_window_spend() - 1.0).abs() < 1e-12);
        assert!(acc.satisfies_w_event());
    }

    #[test]
    fn overspend_is_detected() {
        let mut acc = WEventAccountant::new(5, 1.0);
        for _ in 0..5 {
            acc.record(0.25); // 5 × 0.25 = 1.25 > 1
        }
        assert!(!acc.satisfies_w_event());
    }

    #[test]
    fn sparse_uploads_with_full_budget_are_fine() {
        // Upload every 5 slots with the full window budget, w = 5.
        let mut acc = WEventAccountant::new(5, 1.0);
        for t in 0..50 {
            acc.record(if t % 5 == 0 { 1.0 } else { 0.0 });
        }
        assert!(acc.satisfies_w_event());
        assert!((acc.max_window_spend() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_uploads_with_full_budget_violate() {
        let mut acc = WEventAccountant::new(5, 1.0);
        for t in 0..50 {
            acc.record(if t % 2 == 0 { 1.0 } else { 0.0 });
        }
        assert!(!acc.satisfies_w_event());
    }

    #[test]
    fn empty_ledger_is_trivially_satisfied() {
        let acc = WEventAccountant::new(3, 0.5);
        assert!(acc.is_empty());
        assert_eq!(acc.max_window_spend(), 0.0);
        assert!(acc.satisfies_w_event());
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let _ = WEventAccountant::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid spend")]
    fn negative_spend_panics() {
        let mut acc = WEventAccountant::new(2, 1.0);
        acc.record(-0.1);
    }

    /// The incremental ring matches a naive full-history rescan exactly
    /// (same sliding-sum recurrence, so bit-identical, not just close).
    #[test]
    fn ring_matches_full_history_rescan() {
        for w in [1usize, 3, 7, 32] {
            let mut acc = WEventAccountant::new(w, 10.0);
            let mut history: Vec<f64> = Vec::new();
            let mut state = 0x9E37_79B9u64;
            for t in 0..500 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let spend = if state.is_multiple_of(3) {
                    0.0
                } else {
                    (state >> 33) as f64 / (1u64 << 31) as f64
                };
                acc.record(spend);
                history.push(spend);
                let mut best = 0.0f64;
                let mut sum = 0.0f64;
                for i in 0..history.len() {
                    sum += history[i];
                    if i >= w {
                        sum -= history[i - w];
                    }
                    best = best.max(sum);
                }
                assert_eq!(acc.max_window_spend(), best, "w={w} t={t}");
                assert_eq!(acc.len(), t + 1);
            }
        }
    }

    /// `record_run` is `slots` single records, whatever ring position it
    /// starts from; `reset` returns to the empty ledger and keeps the ring.
    #[test]
    fn record_run_matches_single_records_and_reset_starts_over() {
        for w in [1usize, 4, 10] {
            for prefix in [0usize, 3, 10, 17] {
                for run in [0usize, 1, 9, 10, 33, 1000, 1003] {
                    let mut batch = WEventAccountant::new(w, 2.0);
                    let mut single = WEventAccountant::new(w, 2.0);
                    for t in 0..prefix {
                        batch.record(0.05 * (t % 3) as f64);
                        single.record(0.05 * (t % 3) as f64);
                    }
                    batch.record_run(0.2, run);
                    for _ in 0..run {
                        single.record(0.2);
                    }
                    let state = |a: &WEventAccountant| {
                        let bits = |v: f64| v.to_bits();
                        (
                            a.ring.iter().copied().map(bits).collect::<Vec<_>>(),
                            a.len,
                            bits(a.window_sum),
                            bits(a.max_spend),
                        )
                    };
                    assert_eq!(state(&batch), state(&single), "w={w} {prefix}+{run}");
                    let capacity = batch.ring.capacity();
                    batch.reset();
                    assert_eq!(state(&batch), state(&WEventAccountant::new(w, 2.0)));
                    assert_eq!(batch.ring.capacity(), capacity);
                }
            }
        }
    }

    #[test]
    fn ledger_memory_is_bounded_by_w() {
        let mut acc = WEventAccountant::new(16, 1.0);
        for _ in 0..100_000 {
            acc.record(1.0 / 16.0);
        }
        assert_eq!(acc.len(), 100_000);
        assert!(acc.ring.len() <= 16, "ring must not grow past w");
        assert!((acc.current_window_spend() - 1.0).abs() < 1e-9);
    }
}
