//! Equivalence guarantees of the zero-copy ingest fast path:
//!
//! 1. `Collector::ingest(ReportColumns)` ≡ `Collector::ingest(ReportBatch)`
//!    outcome-for-outcome and state-for-state (bit-identical snapshots —
//!    both paths fold the same reports in the same order), including on
//!    hostile columns carrying NaN/∞ values and out-of-bound slots.
//! 2. The wire path — encode → borrowed `IngestView` decode into scratch
//!    → ingest — lands the collector in exactly the state a direct owned
//!    ingest produces.
//! 3. The borrowed `IngestView` scratch columns agree field-for-field
//!    with the owned `Frame` decode on well-formed ingest frames of
//!    every size. (`Frame::decode_body` parses an ingest payload with
//!    `IngestView` too and widens it into fresh `Vec`s, so what this pins
//!    is that widening into a reused scratch matches; hostile/truncated
//!    payload agreement is fuzzed in `ldp-server`'s own proptests, next to
//!    the codec.)
//! 4. The run fold over consecutive slots — `ShardAccumulator::ingest_user_runs`,
//!    the path every device upload (`CollectorSink`) and every batch whose
//!    rows share one user takes — ≡ folding the accepted rows one
//!    `ingest_parts` at a time: the shard's whole checkpoint image
//!    (table-scan order and the `mean_sum` bits included) is identical,
//!    under unbounded retention and windows shorter and longer than the
//!    run, on runs that start below an advanced base, grow the user
//!    table, cross `max_slots` or the end of the slot space, and are split
//!    by non-finite values or by slots that are not consecutive — with a
//!    collector's whole `encode_checkpoint()` and every book as the
//!    per-row reference leaves them.
//! 5. The block-probed fold kernel — the path every multi-user batch
//!    takes, serial, pooled, single-destination and one-shard alike — ≡
//!    the same: `ShardAccumulator::ingest_rows` over an index run leaves
//!    the shard image one `ingest_parts` per row leaves, and a collector's
//!    whole `encode_checkpoint()` equals the one built from its accepted
//!    rows folded one by one, with exact ledgers and one epoch bump per
//!    touched shard per batch.

use ldp_collector::{
    Collector, CollectorConfig, CollectorSink, ReportBatch, ReportColumns, ReportSink,
    ShardAccumulator, SlotRetention, PARALLEL_FOLD_MIN,
};
use ldp_server::wire::{Frame, FrameView, Header, IngestScratch, HEADER_LEN};
use proptest::prelude::*;

/// Deterministic hostile columns: ~1/7 non-finite values, ~1/5 slots at
/// or beyond the collector bound, user ids spread across shards.
fn hostile_columns(n: usize, seed: u64, max_slots: u64) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let mut users = Vec::with_capacity(n);
    let mut slots = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEAD_BEEF;
    for _ in 0..n {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        users.push(state >> 48);
        slots.push(match state % 5 {
            0 => max_slots + (state >> 20) % 1000, // dropped
            _ => (state >> 8) % max_slots,
        });
        values.push(match state % 7 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => ((state >> 13) % 4096) as f64 / 4096.0 - 0.5,
        });
    }
    (users, slots, values)
}

fn collector(shards: usize, max_slots: u64) -> Collector {
    Collector::new(CollectorConfig {
        shards,
        max_slots,
        ..CollectorConfig::default()
    })
}

/// One user's upload as the run fold has to survive it: slots mostly
/// advance (so a `Last(R)` window slides and expires slots mid-run), jump
/// back now and then (late reports, some below the retained base), and —
/// when `hostile` — ~1/9 of the rows carry a slot at or past `max_slots`
/// and ~1/11 a non-finite value, splitting the run.
fn one_user_rows(n: usize, seed: u64, max_slots: u64, hostile: bool) -> (Vec<u64>, Vec<f64>) {
    let mut slots = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
    let mut slot = 0u64;
    for _ in 0..n {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        slot = match (state >> 33) % 8 {
            0 => slot.saturating_sub((state >> 40) % 12),
            step => (slot + step % 3).min(max_slots - 1),
        };
        slots.push(if hostile && (state >> 17).is_multiple_of(9) {
            max_slots + (state >> 50)
        } else {
            slot
        });
        values.push(match (state >> 24) % 11 {
            0 if hostile => f64::NAN,
            1 if hostile => f64::NEG_INFINITY,
            _ => ((state >> 13) % 4096) as f64 / 4096.0 - 0.5,
        });
    }
    (slots, values)
}

/// A crowd's upload as the block kernel has to survive it: users drawn
/// from `1000..1000 + user_pool` (so they overlap a shard pre-filled by
/// [`shard_with_users`], repeat inside a block, and — being new — insert
/// and grow the table mid-block); slots held for a stretch of rows, then
/// mostly advancing (a `Last(R)` window slides mid-run) and sometimes
/// jumping back (late slots, some below the retained base); `hostile`
/// screening as in [`one_user_rows`].
fn crowd_rows(
    n: usize,
    seed: u64,
    max_slots: u64,
    user_pool: u64,
    hostile: bool,
) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let mut users = Vec::with_capacity(n);
    let mut slots = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE;
    let (mut slot, mut stretch) = (0u64, 0u64);
    for _ in 0..n {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if stretch == 0 {
            stretch = 1 + (state >> 52) % 24;
            slot = match (state >> 33) % 6 {
                0 => slot.saturating_sub((state >> 40) % 12),
                step => (slot + step % 3).min(max_slots - 1),
            };
        }
        stretch -= 1;
        users.push(1000 + (state >> 44) % user_pool);
        slots.push(if hostile && (state >> 17).is_multiple_of(9) {
            max_slots + (state >> 50)
        } else {
            slot
        });
        values.push(match (state >> 24) % 11 {
            0 if hostile => f64::NAN,
            1 if hostile => f64::NEG_INFINITY,
            _ => ((state >> 13) % 4096) as f64 / 4096.0 - 0.5,
        });
    }
    (users, slots, values)
}

/// A shard's state as the words `Collector::encode_checkpoint` writes for
/// it after the shard's batch counter: base, reports, `mean_sum`, the
/// frozen prefix, the retained slots, then the users in table-scan order.
fn shard_image(shard: &ShardAccumulator) -> Vec<u64> {
    let stats = |s: &ldp_collector::SlotStats| [s.count, s.sum.to_bits(), s.sum_sq.to_bits()];
    let mut words = vec![
        shard.base(),
        shard.reports(),
        shard.user_mean_sum().to_bits(),
    ];
    words.extend(stats(shard.frozen()));
    words.push(shard.slot_count() as u64);
    for (_, slot) in shard.retained_slots() {
        words.extend(stats(slot));
    }
    words.push(shard.user_count() as u64);
    for (user, stats) in shard.users() {
        words.extend([user, stats.count, stats.sum.to_bits()]);
    }
    words
}

/// A collector's checkpoint as words, after magic (4) and version (1):
/// the shard count, the five book counters, then per shard its batch
/// counter and its state.
fn checkpoint_words(collector: &Collector) -> Vec<u64> {
    collector.encode_checkpoint()[5..]
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("8 bytes")))
        .collect()
}

/// The shard section of a one-shard collector's checkpoint: everything
/// after the shard count, the books and the shard's batch counter.
fn checkpointed_shard_words(collector: &Collector) -> Vec<u64> {
    assert_eq!(collector.shard_count(), 1);
    checkpoint_words(collector)[7..].to_vec()
}

fn retention_of(retained: u64) -> SlotRetention {
    match retained {
        0 => SlotRetention::Unbounded,
        r => SlotRetention::Last(r),
    }
}

/// A shard that already holds `users` other users (ids from 1000), one
/// report each — at 8, 16 and 32 users the next new user grows the table.
fn shard_with_users(retention: SlotRetention, users: u64) -> ShardAccumulator {
    let mut shard = ShardAccumulator::with_retention(retention);
    for user in 0..users {
        shard.ingest_parts(1000 + user, user % 5, 0.25);
    }
    shard
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn user_run_fold_equals_row_by_row_fold_image_for_image(
        n in 0usize..260,
        seed in 0u64..10_000,
        retained in 0u64..9,
        wide in any::<bool>(),
        prior_users in 0u64..40,
        prior_slot in 0u64..400,
        first_slot in 0u64..400,
        user_known in any::<bool>(),
    ) {
        // A window of up to 8 slots, or of up to 320 — longer than most runs.
        let retention = retention_of(if wide { retained * 40 } else { retained });
        let (_, values) = one_user_rows(n, seed, 512, false);
        let user = if user_known && prior_users > 0 { 1000 } else { 7 };
        // A report at `prior_slot` slides a short window past where the
        // run may start.
        let prior = || {
            let mut shard = shard_with_users(retention, prior_users);
            shard.ingest_parts(999, prior_slot, 0.125);
            shard
        };

        let mut by_row = prior();
        for (i, &value) in values.iter().enumerate() {
            by_row.ingest_parts(user, first_slot + i as u64, value);
        }
        let mut by_run = prior();
        prop_assert_eq!(by_run.ingest_user_runs(user, [(first_slot, &values[..])]), n as u64);
        prop_assert_eq!(shard_image(&by_run), shard_image(&by_row));

        // The same rows as two runs, in one call and in two: state carries
        // across the boundary.
        let cut = n / 3;
        let halves = [
            (first_slot, &values[..cut]),
            (first_slot + cut as u64, &values[cut..]),
        ];
        let mut by_two_runs = prior();
        prop_assert_eq!(by_two_runs.ingest_user_runs(user, halves), n as u64);
        prop_assert_eq!(shard_image(&by_two_runs), shard_image(&by_row));
        let mut by_two_calls = prior();
        for run in halves {
            by_two_calls.ingest_user_runs(user, [run]);
        }
        prop_assert_eq!(shard_image(&by_two_calls), shard_image(&by_row));
    }

    #[test]
    fn row_kernel_equals_row_by_row_fold_image_for_image(
        n in 0usize..200,
        seed in 0u64..10_000,
        retained in 0u64..9,
        prior_users in 0u64..40,
        user_pool in 1u64..60,
        skip_every in 0usize..5,
    ) {
        let retention = retention_of(retained);
        let (users, slots, values) = crowd_rows(n, seed, 512, user_pool, false);
        // An index run, as routing leaves it: ascending, with gaps.
        let rows: Vec<usize> = (0..n)
            .filter(|row| skip_every == 0 || row % skip_every != 0)
            .collect();

        let mut by_row = shard_with_users(retention, prior_users);
        for &row in &rows {
            by_row.ingest_parts(users[row], slots[row], values[row]);
        }
        let mut by_kernel = shard_with_users(retention, prior_users);
        let folded = by_kernel.ingest_rows(&users, &slots, &values, rows.iter().copied());
        prop_assert_eq!(folded, rows.len() as u64);
        prop_assert_eq!(shard_image(&by_kernel), shard_image(&by_row));

        // The same rows as two runs: a block cut short changes nothing.
        let mut by_two_runs = shard_with_users(retention, prior_users);
        let (head, tail) = rows.split_at(rows.len() / 3);
        by_two_runs.ingest_rows(&users, &slots, &values, head.iter().copied());
        by_two_runs.ingest_rows(&users, &slots, &values, tail.iter().copied());
        prop_assert_eq!(shard_image(&by_two_runs), shard_image(&by_row));
    }

    #[test]
    fn mixed_batches_checkpoint_like_their_accepted_rows_folded_one_by_one(
        n in 0usize..400,
        seed in 0u64..10_000,
        retained in 0u64..9,
        shards in 1usize..5,
        pooled in any::<bool>(),
        user_pool in 2u64..90,
    ) {
        let max_slots = 512;
        let retention = retention_of(retained);
        // A pooled case is sized past the pool's threshold: about 73 % of
        // the hostile rows are accepted.
        let n = if pooled { 2 * PARALLEL_FOLD_MIN + n } else { n };
        let collector = Collector::new(CollectorConfig {
            shards,
            max_slots,
            retention,
            ingest_workers: if pooled { 2 } else { 0 },
        });
        let mut reference: Vec<ShardAccumulator> =
            (0..shards).map(|_| ShardAccumulator::with_retention(retention)).collect();
        let mut shard_batches = vec![0u64; shards];
        let mut books = [0u64; 5]; // accepted, dropped, rejected, upstream, batches

        // Two batches: the second meets the tables the first one built.
        for part in 0..2u64 {
            let (users, slots, values) =
                crowd_rows(n, seed ^ part << 40, max_slots, user_pool, true);
            let mut touched = vec![false; shards];
            let (mut accepted, mut dropped, mut rejected) = (0, 0, 0);
            for row in 0..n {
                if slots[row] >= max_slots {
                    dropped += 1;
                } else if !values[row].is_finite() {
                    rejected += 1;
                } else {
                    let shard = collector.shard_of(users[row]);
                    reference[shard].ingest_parts(users[row], slots[row], values[row]);
                    touched[shard] = true;
                    accepted += 1;
                }
            }
            let epochs_before: Vec<u64> = (0..shards).map(|s| collector.shard_epoch(s)).collect();
            let outcome = collector.ingest_outcome(&ReportColumns::new(&users, &slots, &values));
            prop_assert_eq!(
                (outcome.accepted, outcome.dropped, outcome.rejected),
                (accepted, dropped, rejected)
            );
            for shard in 0..shards {
                prop_assert_eq!(
                    collector.shard_epoch(shard) - epochs_before[shard],
                    u64::from(touched[shard]),
                    "one epoch bump per touched shard per batch"
                );
                shard_batches[shard] += u64::from(touched[shard]);
            }
            books[0] += accepted;
            books[1] += dropped;
            books[2] += rejected;
            books[4] += u64::from(n > 0);
        }

        let mut expected = vec![shards as u64];
        expected.extend(books);
        for (shard, batches) in reference.iter().zip(shard_batches) {
            expected.push(batches);
            expected.extend(shard_image(shard));
        }
        prop_assert_eq!(checkpoint_words(&collector), expected);
    }

    #[test]
    fn single_user_batches_checkpoint_like_their_accepted_rows_folded_one_by_one(
        n in 0usize..260,
        seed in 0u64..10_000,
        retained in 0u64..9,
        shards in 1usize..4,
    ) {
        let (max_slots, user) = (512, 7);
        let retention = retention_of(retained);
        let (slots, values) = one_user_rows(n, seed, max_slots, true);

        let mut reference = ShardAccumulator::with_retention(retention);
        let (mut dropped, mut rejected) = (0, 0);
        for (&slot, &value) in slots.iter().zip(&values) {
            if slot >= max_slots {
                dropped += 1;
            } else if !value.is_finite() {
                rejected += 1;
            } else {
                reference.ingest_parts(user, slot, value);
            }
        }

        let config = |shards| CollectorConfig { shards, max_slots, retention, ..CollectorConfig::default() };
        let users = vec![user; n];
        let one_shard = Collector::new(config(1));
        let outcome = one_shard.ingest_outcome(&ReportColumns::new(&users, &slots, &values));
        prop_assert_eq!(
            (outcome.accepted, outcome.dropped, outcome.rejected),
            (reference.reports(), dropped, rejected)
        );
        prop_assert_eq!(checkpointed_shard_words(&one_shard), shard_image(&reference));

        // Any shard count routes the whole batch to the user's shard.
        let sharded = Collector::new(config(shards));
        prop_assert_eq!(
            sharded.ingest_outcome(&ReportBatch::from_columns(users, slots, values)),
            outcome
        );
        prop_assert_eq!(sharded.per_user_rows(), one_shard.per_user_rows());
        let epochs: u64 = (0..shards).map(|s| sharded.shard_epoch(s)).sum();
        prop_assert_eq!(epochs, u64::from(outcome.accepted > 0), "one shard touched, once");
    }

    #[test]
    fn device_uploads_checkpoint_like_their_rows_folded_one_by_one(
        n in 0usize..200,
        seed in 0u64..10_000,
        retained in 0u64..9,
        wide in any::<bool>(),
        shards in 1usize..4,
        first_slot in 0u64..600,
        nan_every in 0usize..6,
        late in any::<bool>(),
    ) {
        let max_slots = 512;
        let retention = retention_of(if wide { retained * 40 } else { retained });
        let collector = Collector::new(CollectorConfig {
            shards,
            max_slots,
            retention,
            ..CollectorConfig::default()
        });
        let mut reference: Vec<ShardAccumulator> =
            (0..shards).map(|_| ShardAccumulator::with_retention(retention)).collect();
        let mut shard_batches = vec![0u64; shards];
        let mut books = [0u64; 5]; // accepted, dropped, rejected, upstream, batches
        // Folds one accepted row into the reference, marking its shard.
        let fold = |reference: &mut [ShardAccumulator], touched: &mut [bool], user: u64, slot: u64, value: f64| {
            let shard = collector.shard_of(user);
            reference[shard].ingest_parts(user, slot, value);
            touched[shard] = true;
        };

        let (_, stream) = one_user_rows(n, seed, max_slots, false);
        let stream: Vec<f64> = stream
            .iter()
            .enumerate()
            .map(|(i, &v)| if nan_every > 0 && i % nan_every == 1 { f64::NAN } else { v })
            .collect();
        let (slots, values) = one_user_rows(n, seed ^ 1, max_slots, true);
        // A stream that may cross `max_slots`, a single-user wire batch
        // with gaps, NaN and out-of-bound slots, a stream that starts below
        // the base the first one advanced (or right after it), and one
        // that runs off the end of the slot space.
        let end_of_space = [0.5, 0.25, 0.75];
        let mut sink = CollectorSink::new(&collector);
        let mut sink_accepted = 0;
        for step in 0..4 {
            let mut touched = vec![false; shards];
            let (mut accepted, mut dropped, mut rejected, mut upstream) = (0, 0, 0, 0);
            let (user, start, upload): (u64, u64, &[f64]) = match step {
                0 => (7, first_slot, &stream),
                2 => (7, if late { 0 } else { first_slot + n as u64 }, &stream),
                3 => (8, u64::MAX - 1, &end_of_space),
                _ => {
                    let users = vec![8; n];
                    for row in 0..n {
                        if slots[row] >= max_slots {
                            dropped += 1;
                        } else if !values[row].is_finite() {
                            rejected += 1;
                        } else {
                            fold(&mut reference, &mut touched, 8, slots[row], values[row]);
                            accepted += 1;
                        }
                    }
                    let outcome = collector.ingest_outcome(&ReportColumns::new(&users, &slots, &values));
                    prop_assert_eq!(
                        (outcome.accepted, outcome.dropped, outcome.rejected),
                        (accepted, dropped, rejected)
                    );
                    books[4] += u64::from(n > 0);
                    (8, 0, &[][..])
                }
            };
            for (i, &value) in upload.iter().enumerate() {
                let slot = start.saturating_add(i as u64);
                if !value.is_finite() {
                    upstream += 1;
                } else if slot >= max_slots {
                    dropped += 1;
                } else {
                    fold(&mut reference, &mut touched, user, slot, value);
                    accepted += 1;
                }
            }
            if step != 1 {
                sink.submit(user, start, upload).expect("a local sink never fails");
                sink_accepted += accepted;
                books[4] += u64::from(upload.iter().any(|v| v.is_finite()));
            }
            books[0] += accepted;
            books[1] += dropped;
            books[2] += rejected + upstream;
            books[3] += upstream;
            for (batches, touched) in shard_batches.iter_mut().zip(touched) {
                *batches += u64::from(touched);
            }
        }
        prop_assert_eq!(sink.finish().expect("a local sink never fails"), sink_accepted);
        for (shard, &batches) in shard_batches.iter().enumerate() {
            prop_assert_eq!(collector.shard_epoch(shard), batches, "one epoch bump per fold");
        }

        let mut expected = vec![shards as u64];
        expected.extend(books);
        for (shard, batches) in reference.iter().zip(shard_batches) {
            expected.push(batches);
            expected.extend(shard_image(shard));
        }
        let expected: Vec<u8> = expected.iter().flat_map(|word| word.to_le_bytes()).collect();
        let checkpoint = collector.encode_checkpoint();
        prop_assert_eq!(&checkpoint[5..], &expected[..]);
    }

    #[test]
    fn borrowed_columns_and_owned_batch_ingest_identically(
        n in 0usize..400,
        seed in 0u64..10_000,
        shards in 1usize..6,
    ) {
        let max_slots = 64;
        let (users, slots, values) = hostile_columns(n, seed, max_slots);

        let owned = collector(shards, max_slots);
        let batch = ReportBatch::from_columns(users.clone(), slots.clone(), values.clone());
        let outcome_owned = owned.ingest_outcome(&batch);

        let borrowed = collector(shards, max_slots);
        let columns = ReportColumns::new(&users, &slots, &values);
        let outcome_borrowed = borrowed.ingest_outcome(&columns);

        prop_assert_eq!(outcome_owned, outcome_borrowed);
        prop_assert_eq!(
            outcome_owned.accepted + outcome_owned.dropped + outcome_owned.rejected,
            n as u64,
            "every report accounted for"
        );
        prop_assert_eq!(owned.total_reports(), borrowed.total_reports());
        prop_assert_eq!(owned.dropped_reports(), borrowed.dropped_reports());
        prop_assert_eq!(owned.rejected_reports(), borrowed.rejected_reports());

        // Same reports, same order, same shards: the resulting state is
        // bit-identical, not merely close.
        let (snap_owned, snap_borrowed) = (owned.snapshot(), borrowed.snapshot());
        prop_assert_eq!(owned.per_user_rows(), borrowed.per_user_rows());
        prop_assert_eq!(snap_owned.per_user_means(), snap_borrowed.per_user_means());
        prop_assert_eq!(snap_owned.slot_count(), snap_borrowed.slot_count());
        for (a, b) in snap_owned.slots().iter().zip(snap_borrowed.slots()) {
            prop_assert_eq!(a.count, b.count);
            prop_assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            prop_assert_eq!(a.sum_sq.to_bits(), b.sum_sq.to_bits());
        }
        prop_assert_eq!(owned.per_user_rows(), borrowed.per_user_rows());
    }

    #[test]
    fn wire_decoded_scratch_columns_ingest_like_the_owned_batch(
        n in 0usize..300,
        seed in 0u64..10_000,
    ) {
        let max_slots = 64;
        let (users, slots, values) = hostile_columns(n, seed, max_slots);

        // Reference: direct owned ingest, no wire round trip.
        let reference = collector(4, max_slots);
        let batch = ReportBatch::from_columns(users.clone(), slots.clone(), values.clone());
        let reference_outcome = reference.ingest_outcome(&batch);

        // Wire path: encode the batch, decode borrowed, fold the scratch
        // columns — what a server connection thread does per frame.
        let via_wire = collector(4, max_slots);
        let mut bytes = Vec::new();
        Frame::encode_ingest_into(&batch, &mut bytes);
        let header = Header::parse(bytes[..HEADER_LEN].try_into().expect("header"))
            .expect("well-formed header");
        let payload = &bytes[HEADER_LEN..];
        header.verify(payload).expect("checksum survives the trip");
        let view = match FrameView::decode_body(header.frame_type, payload).expect("decode") {
            FrameView::Ingest(view) => view,
            other => panic!("expected ingest view, got {other:?}"),
        };
        let mut scratch = IngestScratch::default();
        let wire_outcome = via_wire.ingest_outcome(&view.columns(&mut scratch));

        prop_assert_eq!(reference_outcome, wire_outcome);
        prop_assert_eq!(
            reference.snapshot().per_user_means(),
            via_wire.snapshot().per_user_means()
        );

        // And the borrowed view agrees field-for-field with the owned
        // decoder on the same payload.
        match Frame::decode_body(header.frame_type, payload).expect("owned decode") {
            Frame::Ingest { users: u, slots: s, values: v, rejected_upstream } => {
                prop_assert_eq!(rejected_upstream, view.rejected_upstream());
                let columns = view.columns(&mut scratch);
                prop_assert_eq!(columns.users(), &u[..]);
                prop_assert_eq!(columns.slots(), &s[..]);
                let bits: Vec<u64> = columns.values().iter().map(|x| x.to_bits()).collect();
                let owned_bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(bits, owned_bits, "NaN payloads survive bit-exactly");
            }
            other => panic!("expected ingest frame, got {other:?}"),
        }
    }
}

#[test]
fn empty_columns_are_a_no_op_on_both_paths() {
    let c = collector(3, 64);
    assert_eq!(c.ingest(&ReportColumns::new(&[], &[], &[])), 0);
    assert_eq!(c.ingest(&ReportBatch::new()), 0);
    assert_eq!(c.total_reports(), 0);
    assert!((0..3).all(|s| c.shard_epoch(s) == 0), "no epoch advanced");
}
