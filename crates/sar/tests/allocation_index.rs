//! Oracle tests of the allocation's per-owner index and the borrowed
//! remaining-path length.

use proptest::prelude::*;
use sesame_sar::allocation::Allocation;
use sesame_sar::coverage::{chained_path_length_m, path_length_m};
use sesame_types::geo::GeoPoint;
use sesame_types::ids::{TaskId, UavId};
use std::collections::BTreeSet;

const OWNERS: u32 = 5;

/// `tasks_of` the slow way: every registered task whose owner is `uav`,
/// ascending.
fn brute_force_tasks_of(alloc: &Allocation, known: &BTreeSet<TaskId>, uav: UavId) -> Vec<TaskId> {
    known
        .iter()
        .copied()
        .filter(|t| alloc.owner(*t) == Some(uav))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any schedule of assignments (including re-assignments and
    /// out-of-order ids), progress and redistributions, the index agrees
    /// with a scan of the owner map for every UAV.
    #[test]
    fn owner_index_matches_a_scan_of_the_owner_map(
        ops in proptest::collection::vec(
            (0usize..4, 0u32..16, 1u32..OWNERS + 1, 0.0..500.0f64, 0u32..32),
            1..60,
        ),
    ) {
        let mut alloc = Allocation::new();
        let mut known = BTreeSet::new();
        for (kind, task, owner, work, mask) in ops {
            let task = TaskId::new(task);
            let owner = UavId::new(owner);
            match kind {
                0 | 1 => {
                    alloc.assign(task, owner, work);
                    known.insert(task);
                }
                2 => alloc.record_progress(task, work),
                _ => {
                    let capable: Vec<UavId> = (1..=OWNERS)
                        .filter(|u| mask & (1 << (u - 1)) != 0)
                        .map(UavId::new)
                        .collect();
                    alloc.redistribute_from(owner, &capable);
                }
            }
            for u in 0..=OWNERS + 1 {
                let uav = UavId::new(u);
                prop_assert_eq!(
                    alloc.tasks_of(uav).to_vec(),
                    brute_force_tasks_of(&alloc, &known, uav)
                );
            }
        }
    }

    /// The borrowed length over chained segments (empty ones included)
    /// equals the length of the concatenated path, bit for bit.
    #[test]
    fn chained_length_equals_the_concatenated_path_length(
        segments in proptest::collection::vec(
            proptest::collection::vec((-0.01..0.01f64, -0.01..0.01f64, 0.0..120.0f64), 0..6),
            0..6,
        ),
    ) {
        let segments: Vec<Vec<GeoPoint>> = segments
            .into_iter()
            .map(|seg| {
                seg.into_iter()
                    .map(|(dlat, dlon, alt)| GeoPoint::new(35.0 + dlat, 33.0 + dlon, alt))
                    .collect()
            })
            .collect();
        let concatenated: Vec<GeoPoint> = segments.concat();
        let chained = chained_path_length_m(segments.iter().map(Vec::as_slice));
        prop_assert_eq!(chained.to_bits(), path_length_m(&concatenated).to_bits());
    }
}
