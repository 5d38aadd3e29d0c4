//! Linear-time selection and weighted medians.
//!
//! The divide-and-conquer framework (Section 3) is modelled on classic linear-time
//! selection, and the pivot algorithm of Section 4 relies on the *weighted median*
//! (the element at the middle position of a multiset in which each element appears
//! with a given multiplicity). Both are one loop here, [`weighted_select_by`]: it
//! permutes the caller's slice in place — the callers hand it row indices, so
//! nothing is cloned or allocated — by splitting the live range at its midpoint
//! with [`slice::select_nth_unstable_by`], summing the lower half's multiplicities
//! and descending into the half that holds the target. The ranges halve, so the
//! work is linear in the number of *distinct* elements, and std's introselect
//! (median-of-medians fallback) keeps that bound worst-case.

use std::cmp::Ordering;

/// Ranges this short are sorted and scanned instead of split again.
const SORT_BELOW: usize = 16;

/// Selects the element with zero-based rank `k` under the comparator, in worst-case
/// linear time. Ties are resolved arbitrarily but consistently.
///
/// Panics if `items` is empty or `k >= items.len()`.
pub fn select_kth_by<T: Clone>(items: &[T], k: usize, cmp: &impl Fn(&T, &T) -> Ordering) -> T {
    assert!(!items.is_empty(), "cannot select from an empty slice");
    assert!(
        k < items.len(),
        "rank {k} out of range for {} items",
        items.len()
    );
    let mut order: Vec<usize> = (0..items.len()).collect();
    let by_item = |a: &usize, b: &usize| cmp(&items[*a], &items[*b]);
    let at = weighted_select_by(&mut order, k as u128, |_| 1, by_item);
    items[order[at]].clone()
}

/// The weighted median of a multiset — `mult(x)` copies of each `x` in `items` —
/// as `(position, total multiplicity)`: the element at position `⌊(|B| − 1)/2⌋`
/// (the *lower* median) of the expanded multiset `B` under the comparator, matching
/// the choice illustrated in Figure 2 of the paper. Reorders `items`; the position
/// indexes the reordered slice.
///
/// Panics if the total multiplicity is zero.
pub fn weighted_median_by<T>(
    items: &mut [T],
    mult: impl Fn(&T) -> u128,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> (usize, u128) {
    let total: u128 = items.iter().map(&mult).sum();
    assert!(
        total > 0,
        "cannot take the weighted median of an empty multiset"
    );
    (weighted_select_by(items, (total - 1) / 2, mult, cmp), total)
}

/// Weighted selection: the position, after reordering `items` in place, of the
/// element at zero-based position `target` of the multiset in which each `x`
/// appears `mult(x)` times, ordered by `cmp`. Elements of multiplicity zero are
/// never selected.
///
/// Panics if `target` is not smaller than the total multiplicity.
pub fn weighted_select_by<T>(
    items: &mut [T],
    mut target: u128,
    mult: impl Fn(&T) -> u128,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> usize {
    // Invariant: the answer lies in `items[lo..hi]`, at position `target` of that
    // range's expanded multiset; everything left of `lo` orders before the range.
    let (mut lo, mut hi) = (0, items.len());
    while hi - lo > SORT_BELOW {
        let mid = lo + (hi - lo) / 2;
        items[lo..hi].select_nth_unstable_by(mid - lo, &cmp);
        let below: u128 = items[lo..mid].iter().map(&mult).sum();
        let upto = below + mult(&items[mid]);
        if target < below {
            hi = mid;
        } else if target < upto {
            return mid;
        } else {
            target -= upto;
            lo = mid + 1;
        }
    }
    items[lo..hi].sort_unstable_by(&cmp);
    for (at, item) in items.iter().enumerate().take(hi).skip(lo) {
        let copies = mult(item);
        if target < copies {
            return at;
        }
        target -= copies;
    }
    panic!("selection target beyond the total multiplicity by {target}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cmp_i64(a: &i64, b: &i64) -> Ordering {
        a.cmp(b)
    }

    fn by_value(a: &(i64, u128), b: &(i64, u128)) -> Ordering {
        a.0.cmp(&b.0)
    }

    fn select(items: &[(i64, u128)], target: u128) -> i64 {
        let mut items = items.to_vec();
        let at = weighted_select_by(&mut items, target, |item| item.1, by_value);
        items[at].0
    }

    fn median(items: &[(i64, u128)]) -> i64 {
        let mut items = items.to_vec();
        let (at, total) = weighted_median_by(&mut items, |item| item.1, by_value);
        assert_eq!(total, items.iter().map(|item| item.1).sum::<u128>());
        items[at].0
    }

    #[test]
    fn select_kth_matches_sorting() {
        let items: Vec<i64> = vec![5, 3, 9, 1, 7, 3, 8, 2, 6, 4, 0];
        let mut sorted = items.clone();
        sorted.sort_unstable();
        for (k, expected) in sorted.iter().enumerate() {
            assert_eq!(select_kth_by(&items, k, &cmp_i64), *expected, "k = {k}");
        }
    }

    #[test]
    fn select_kth_on_large_input_with_duplicates() {
        let items: Vec<i64> = (0..5000).map(|i| (i * 37) % 101).collect();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        for k in [0, 1, 2499, 2500, 4998, 4999] {
            assert_eq!(select_kth_by(&items, k, &cmp_i64), sorted[k]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_kth_rejects_out_of_range() {
        select_kth_by(&[1i64, 2], 2, &cmp_i64);
    }

    #[test]
    fn weighted_median_respects_multiplicities() {
        // Multiset: 1×1, 10×5, 100×1 → expansion [1,10,10,10,10,10,100]; position 3 = 10.
        assert_eq!(median(&[(1, 1), (10, 5), (100, 1)]), 10);
        // A heavy small element dominates: [1×10, 100×1] → median 1.
        assert_eq!(median(&[(1, 10), (100, 1)]), 1);
    }

    #[test]
    fn weighted_select_matches_expanded_multiset() {
        let items = [(4i64, 3u128), (1, 2), (9, 4), (6, 1)];
        let mut expanded: Vec<i64> = (items.iter())
            .flat_map(|&(x, m)| std::iter::repeat_n(x, m as usize))
            .collect();
        expanded.sort_unstable();
        for (target, expected) in expanded.iter().enumerate() {
            assert_eq!(select(&items, target as u128), *expected, "target {target}");
        }
    }

    #[test]
    fn weighted_select_handles_huge_multiplicities() {
        let items = [(1i64, 1u128 << 90), (2, 1u128 << 90), (3, 1)];
        assert_eq!(select(&items, 0), 1);
        assert_eq!(select(&items, (1u128 << 90) + 5), 2);
        assert_eq!(select(&items, 1u128 << 91), 3);
    }

    #[test]
    fn weighted_select_ignores_zero_multiplicities() {
        assert_eq!(select(&[(1, 0), (2, 1), (3, 0)], 0), 2);
    }

    #[test]
    #[should_panic(expected = "empty multiset")]
    fn weighted_median_of_empty_panics() {
        median(&[]);
    }

    #[test]
    #[should_panic(expected = "beyond the total multiplicity")]
    fn weighted_select_rejects_a_target_past_the_total() {
        select(&[(1, 2), (2, 3)], 5);
    }

    #[test]
    fn weighted_median_definition_matches_paper() {
        // The lower median: for an even-sized multiset, the lower of the two middle
        // elements (Figure 2 picks U(6, 8) over U(6, 9) in the group of size 2).
        assert_eq!(median(&[(1, 1), (2, 1), (3, 1), (4, 1)]), 2);
        assert_eq!(median(&[(1, 1), (2, 1), (3, 1)]), 2);
    }

    #[test]
    fn select_kth_with_custom_comparator() {
        let items: Vec<(i64, &str)> = vec![(3, "c"), (1, "a"), (2, "b")];
        let by_first = |a: &(i64, &str), b: &(i64, &str)| a.0.cmp(&b.0);
        assert_eq!(select_kth_by(&items, 1, &by_first), (2, "b"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place selection against position `target` of the sorted expanded
        /// multiset: few distinct values (heavy ties), zero multiplicities,
        /// multiplicities up to 2^90, and sorted / reversed / all-equal / organ-pipe
        /// input orders. Small multisets are checked at every target, huge ones on
        /// both sides of every boundary between two elements' copies; the weighted
        /// median is the *lower* one. Mutations this fails: `(total − 1) / 2` →
        /// `total / 2`; not subtracting `upto` from the target when descending
        /// right; descending right into `[mid..]`; `upto = below` (skipping the
        /// split element's own copies).
        #[test]
        fn weighted_selection_indexes_the_sorted_expanded_multiset(
            seed in 0u64..1_000_000,
            len in 1usize..120,
            order in 0usize..5,
            huge in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let domain = rng.random_range(1..=(len as i64).min(12));
            let mut items: Vec<(i64, u128)> = (0..len)
                .map(|_| {
                    let copies = match rng.random_range(0..4u8) {
                        0 => 0,
                        1 if huge => 1u128 << rng.random_range(60..=90u32),
                        _ => rng.random_range(1..=5u128),
                    };
                    (rng.random_range(0..domain), copies)
                })
                .collect();
            match order {
                1 => items.sort_by(by_value),
                2 => items.sort_by(|a, b| by_value(b, a)),
                3 => items.iter_mut().for_each(|item| item.0 = 7),
                4 => {
                    // Organ pipe: ascending to the middle, descending after it.
                    items.sort_by(by_value);
                    let (up, down): (Vec<_>, Vec<_>) =
                        items.iter().enumerate().partition(|(i, _)| i % 2 == 0);
                    items = (up.into_iter().map(|(_, item)| *item))
                        .chain(down.into_iter().rev().map(|(_, item)| *item))
                        .collect();
                }
                _ => {}
            }
            let mut sorted = items.clone();
            sorted.sort_by(by_value);
            let ends: Vec<u128> = sorted
                .iter()
                .scan(0u128, |acc, item| {
                    *acc += item.1;
                    Some(*acc)
                })
                .collect();
            let total = *ends.last().unwrap();
            if total == 0 {
                return Ok(());
            }
            let expected = |target: u128| sorted[ends.partition_point(|&end| end <= target)].0;
            let targets: Vec<u128> = if total <= 600 {
                (0..total).collect()
            } else {
                let around = |end: u128| [end.saturating_sub(1), end, end + 1];
                (ends.iter().flat_map(|&end| around(end)))
                    .chain([0, total / 2, total - 1])
                    .filter(|&target| target < total)
                    .collect()
            };
            for target in targets {
                prop_assert_eq!(select(&items, target), expected(target), "target {} of {}", target, total);
            }
            prop_assert_eq!(median(&items), expected((total - 1) / 2), "lower median of {}", total);
        }
    }
}
