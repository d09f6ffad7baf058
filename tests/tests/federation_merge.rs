//! Property tests for the federation merge algebra:
//! [`MergedParts::merge`] over [`SnapshotPart`]s with *differing*
//! retention bases must be order-independent and associative (merging a
//! merge's [`MergedParts::part`] re-export agrees with the flat
//! merge) — the invariants that let routers stack and let a router fan
//! out to downstreams in any order.

use ldp_collector::{MergedParts, SlotStats, SnapshotPart};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

/// An arbitrary well-formed part: `start >= retained_base`, dense slots
/// from `start`, `slot_end` covering them, non-negative stats.
fn part_strategy() -> impl Strategy<Value = SnapshotPart> {
    (
        0u64..20,                                          // retained_base
        0u64..6,                                           // start = base + this
        proptest::collection::vec(slot_strategy(), 0..12), // retained slots
        slot_strategy(),                                   // frozen prefix
        0u64..50,                                          // extra users
        0.0..100.0f64,                                     // user mean sum
    )
        .prop_map(|(base, start_off, slots, frozen, users, mean_sum)| {
            let start = base + start_off;
            let slot_end = start + slots.len() as u64;
            let retained: u64 = slots.iter().map(|s| s.count).sum();
            SnapshotPart {
                retained_base: base,
                slot_end: slot_end.max(base),
                start,
                slots,
                frozen,
                total_reports: retained + frozen.count,
                user_count: users,
                user_mean_sum: mean_sum,
            }
        })
}

fn slot_strategy() -> impl Strategy<Value = SlotStats> {
    (0u64..100, 0.0..50.0f64).prop_map(|(count, sum)| SlotStats {
        count,
        sum: if count == 0 { 0.0 } else { sum },
        sum_sq: if count == 0 { 0.0 } else { sum * 0.5 },
    })
}

/// Structural + numeric agreement between two merges of the same parts.
fn assert_merges_agree(a: &MergedParts, b: &MergedParts, what: &str) {
    assert_eq!(a.retained_base(), b.retained_base(), "{what}: base");
    assert_eq!(a.slot_end(), b.slot_end(), "{what}: end");
    assert_eq!(a.total_reports(), b.total_reports(), "{what}: totals");
    assert_eq!(a.user_count(), b.user_count(), "{what}: users");
    assert!(
        close(a.user_mean_sum(), b.user_mean_sum()),
        "{what}: user_mean_sum {} vs {}",
        a.user_mean_sum(),
        b.user_mean_sum()
    );
    let (fa, fb) = (a.frozen(), b.frozen());
    assert_eq!(fa.count, fb.count, "{what}: frozen count");
    assert!(close(fa.sum, fb.sum), "{what}: frozen sum");
    assert!(close(fa.sum_sq, fb.sum_sq), "{what}: frozen sum_sq");
    let (sa, sb) = (a.table().slots(), b.table().slots());
    assert_eq!(sa.len(), sb.len(), "{what}: slot span");
    for (i, (x, y)) in sa.iter().zip(sb).enumerate() {
        assert_eq!(x.count, y.count, "{what}: slot {i} count");
        assert!(close(x.sum, y.sum), "{what}: slot {i} sum");
        assert!(close(x.sum_sq, y.sum_sq), "{what}: slot {i} sum_sq");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merge order never matters: any permutation of the downstream
    /// replies yields the same federated answer.
    #[test]
    fn merge_is_order_independent(
        parts in proptest::collection::vec(part_strategy(), 1..6),
        seed in 0u64..1000,
    ) {
        let forward = MergedParts::merge(&parts);
        // A deterministic shuffle driven by the seed.
        let mut shuffled: Vec<&SnapshotPart> = parts.iter().collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let backward = MergedParts::merge(shuffled);
        assert_merges_agree(&forward, &backward, "permutation");
    }

    /// Associativity through the `part` re-export: pre-merging any prefix at an
    /// intermediate router and merging its re-export with the remaining
    /// parts agrees with the flat merge — so routers stack.
    #[test]
    fn merge_is_associative_through_to_part(
        parts in proptest::collection::vec(part_strategy(), 2..6),
        split_seed in 0usize..100,
    ) {
        let flat = MergedParts::merge(&parts);
        let split = 1 + split_seed % (parts.len() - 1);
        let left = MergedParts::merge(&parts[..split]).part(0..u64::MAX);
        let nested_inputs: Vec<&SnapshotPart> =
            std::iter::once(&left).chain(&parts[split..]).collect();
        let nested = MergedParts::merge(nested_inputs);
        assert_merges_agree(&flat, &nested, "nested vs flat");
    }

    /// The merged anchor is the largest per-part base (every part still
    /// fully retains it), and no accepted report is ever lost to the
    /// anchoring: retained + frozen always re-totals.
    #[test]
    fn merge_anchors_at_largest_base_and_loses_nothing(
        parts in proptest::collection::vec(part_strategy(), 1..6),
    ) {
        let merged = MergedParts::merge(&parts);
        let max_base = parts.iter().map(|p| p.retained_base).max().unwrap();
        assert_eq!(merged.retained_base(), max_base);
        let fed_counted: u64 = merged.table().slots().iter().map(|s| s.count).sum::<u64>()
            + merged.frozen().count;
        let direct: u64 = parts
            .iter()
            .map(|p| p.slots.iter().map(|s| s.count).sum::<u64>() + p.frozen.count)
            .sum();
        assert_eq!(fed_counted, direct, "no report lost or duplicated by anchoring");
    }
}
