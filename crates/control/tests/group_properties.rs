//! Property tests for the top-level [`GroupAllocator`] policies: every
//! partition a policy returns must sum to exactly the machine size and
//! keep every group at or above the configured floor, whatever desires
//! it is fed — including adversarial values (NaN, negative, huge).

use abg_control::{
    equi_partition, ConservativeTwoLevel, DesireProportional, GroupAllocator, GroupDesire,
    GroupPolicy, StaticEqui,
};
use proptest::prelude::*;

/// One arbitrary (possibly hostile) desire report.
fn any_desire() -> impl Strategy<Value = GroupDesire> {
    (
        prop_oneof![-1e6f64..1e6, Just(f64::NAN), Just(f64::INFINITY), Just(0.0),],
        0u64..10_000,
        prop_oneof![0.0f64..1.5, Just(f64::NAN)],
    )
        .prop_map(|(requests, population, utilization)| GroupDesire {
            requests,
            population,
            utilization,
        })
}

/// A consistent machine shape: `groups * floor <= processors`.
fn machine() -> impl Strategy<Value = (u32, u32, u32)> {
    (1u32..=16, 1u32..=512).prop_flat_map(|(groups, processors)| {
        let processors = processors.max(groups);
        let max_floor = processors / groups;
        (Just(processors), Just(groups), 1..=max_floor)
    })
}

fn check_invariants(caps: &[u32], processors: u32, groups: u32, floor: u32) {
    assert_eq!(caps.len(), groups as usize);
    assert_eq!(caps.iter().sum::<u32>(), processors);
    for (k, &c) in caps.iter().enumerate() {
        assert!(c >= floor, "group {k} got {c} < floor {floor}: {caps:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every policy keeps the sum-and-floor invariants over a run of
    /// epochs, starting from the equi-partition, for any desire stream.
    #[test]
    fn policies_always_sum_to_p_and_respect_the_floor(
        (processors, groups, floor) in machine(),
        epochs in prop::collection::vec(
            prop::collection::vec(any_desire(), 16), 1..8),
        policy in prop_oneof![
            Just(GroupPolicy::Static),
            Just(GroupPolicy::Desire),
            Just(GroupPolicy::Conservative),
        ],
    ) {
        let mut alloc = policy.build();
        let mut caps = equi_partition(processors, groups);
        // `machine()` guarantees the floor fits, so even the initial
        // equi-partition must satisfy the invariants.
        check_invariants(&caps, processors, groups, floor);
        for desires in &epochs {
            caps = alloc.reallocate(processors, floor, &caps, &desires[..groups as usize]);
            check_invariants(&caps, processors, groups, floor);
        }
    }

    /// The desire-proportional ceiling never breaks the sum invariant,
    /// feasible or not.
    #[test]
    fn desire_ceiling_preserves_the_sum(
        (processors, groups, floor) in machine(),
        max in 1u32..64,
        desires in prop::collection::vec(any_desire(), 16),
    ) {
        let mut alloc = DesireProportional::with_max(max);
        let caps = alloc.reallocate(
            processors, floor, &equi_partition(processors, groups),
            &desires[..groups as usize]);
        prop_assert_eq!(caps.iter().sum::<u32>(), processors);
        prop_assert!(caps.iter().all(|&c| c >= floor));
    }

    /// StaticEqui is the identity on whatever partition it is handed —
    /// the property that makes its outcome independent of the epoch
    /// length.
    #[test]
    fn static_equi_is_the_identity(
        (processors, groups, _floor) in machine(),
        desires in prop::collection::vec(any_desire(), 16),
    ) {
        let current = equi_partition(processors, groups);
        let caps = StaticEqui.reallocate(
            processors, 1, &current, &desires[..groups as usize]);
        prop_assert_eq!(caps, current);
    }

    /// The conservative policy's multiplier state never produces an
    /// invalid partition even when group counts change between calls
    /// (the policy re-seeds its state on a shape change).
    #[test]
    fn conservative_survives_shape_changes(
        (processors, groups, floor) in machine(),
        desires in prop::collection::vec(any_desire(), 16),
    ) {
        let mut alloc = ConservativeTwoLevel::new(2.0, 0.8);
        // Warm the state at a different group count first.
        let warm = equi_partition(processors.max(2), 2);
        let _ = alloc.reallocate(processors.max(2), 1, &warm, &[
            GroupDesire::default(), GroupDesire::default()]);
        let caps = alloc.reallocate(
            processors, floor, &equi_partition(processors, groups),
            &desires[..groups as usize]);
        check_invariants(&caps, processors, groups, floor);
    }
}
