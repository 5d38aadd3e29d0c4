//! The leaf of Algorithm 1: select on weights alone, key only the tie band.
//!
//! Once the candidates fit the materialization threshold the drivers stop pivoting
//! and need the answers at given ranks of the `(weight, key)` order. Sorting that
//! order in full keys every answer, yet the key only ever decides between answers
//! of *equal* weight. [`select_ranks`] therefore makes two passes:
//!
//! 1. walk every answer once, keeping its weight and a 32-bit locator; place the
//!    requested ranks with a multi-rank `select_nth_unstable_by` on the weights, which
//!    fixes each target weight `w*`; count `below(w*)`, the answers strictly lighter,
//!    over the **whole** leaf;
//! 2. walk again only the locators that hold an answer weighing some `w*`, recompute
//!    each weight (the same fold, so bit-identical), key the answers that match, and
//!    sort that band by `(weight, key)`.
//!
//! The full order lists `below(w*)` lighter answers, then the band's answers of
//! weight `w*` in key order; rank `k` is therefore `band[start(w*) + k − below(w*)]`
//! — exactly the element a full sort holds at `k`. Every comparison of weights is
//! [`Weight::cmp`] (`total_cmp`), never the derived `==`. (A ranking's weights hold
//! no `-0.0`: `Ranking::var_weight` reads a weight function's `-0.0` as `+0.0`.)

use crate::encoded::CodeKey;
use crate::quantile::{keyed_answer_cmp, SolveBackend};
use crate::{CoreError, Result};
use qjoin_query::Variable;
use qjoin_ranking::Weight;
use std::cmp::Ordering;

/// What [`select_ranks`] found.
pub(crate) struct Leaf {
    /// Answers walked in pass 1: the size of the leaf.
    pub walked: usize,
    /// Answers keyed in pass 2: the tie band.
    pub keyed: usize,
    /// The `(weight, key)` at each requested rank, in request order.
    pub selected: Vec<(Weight, CodeKey)>,
}

/// A pass-1 locator for index `index`; refuses what the 32 bits cannot address.
pub(crate) fn locator(index: usize) -> Result<u32> {
    let refuse = |_| CoreError::TooLarge(format!("leaf locator {index} exceeds 32 bits"));
    u32::try_from(index).map_err(refuse)
}

/// The answers at zero-based `ranks` (any order, duplicates allowed) of the
/// instance's answers sorted by `(weight, key)`, without keying the whole leaf — see
/// the module docs. A rank past the end means the last answer: the ε-lossy backends
/// count a partition before re-trimming it, so a leaf may hold fewer answers than
/// the driver routed ranks for.
pub(crate) fn select_ranks<B: SolveBackend>(
    backend: &B,
    instance: &B::Inst,
    original_vars: &[Variable],
    ranks: &[u128],
) -> Result<Leaf> {
    let mut weights = backend.leaf_weights(instance)?;
    let Some(last) = weights.len().checked_sub(1) else {
        return Err(CoreError::NoAnswers);
    };
    let clamp = |&rank: &u128| usize::try_from(rank).map_or(last, |rank| rank.min(last));
    let ranks: Vec<usize> = ranks.iter().map(clamp).collect();
    let mut distinct = ranks.clone();
    distinct.sort_unstable();
    distinct.dedup();
    place(&mut weights, 0, &distinct);
    // The distinct target weights, ascending as their ranks are.
    let mut targets: Vec<Weight> = distinct.iter().map(|&r| weights[r].0.clone()).collect();
    targets.dedup_by(|later, earlier| (*earlier).cmp(later) == Ordering::Equal);
    let target_of = |w: &Weight| targets.binary_search_by(|t| t.cmp(w));

    // One scan of the whole leaf: `below[j]` counts the weights under `targets[j]`
    // (first as "under targets[j] but not targets[j − 1]", then summed up), and the
    // locators of the weights that tie a target are the ones pass 2 walks.
    let mut below = vec![0usize; targets.len() + 1];
    let mut tied: Vec<u32> = Vec::new();
    for (w, at) in &weights {
        let not_above = targets.partition_point(|t| t.cmp(w) != Ordering::Greater);
        below[not_above] += 1;
        if not_above > 0 && targets[not_above - 1].cmp(w) == Ordering::Equal {
            tied.push(*at);
        }
    }
    for j in 1..below.len() {
        below[j] += below[j - 1];
    }
    tied.sort_unstable();
    tied.dedup();

    let wanted = |w: &Weight| target_of(w).is_ok();
    let mut band = backend.leaf_band(instance, original_vars, &tied, &wanted)?;
    band.sort_unstable_by(keyed_answer_cmp);
    let pick = |&rank: &usize| {
        let w = &weights[rank].0;
        let start = band.partition_point(|(b, _)| b.cmp(w) == Ordering::Less);
        let within = target_of(w).ok().and_then(|j| rank.checked_sub(below[j]));
        let found = within.and_then(|within| band.get(start + within));
        found
            .filter(|(b, _)| b.cmp(w) == Ordering::Equal)
            .cloned()
            .ok_or_else(|| {
                CoreError::Internal(format!("the leaf's passes disagree at rank {rank}"))
            })
    };
    Ok(Leaf {
        walked: weights.len(),
        keyed: band.len(),
        selected: ranks.iter().map(pick).collect::<Result<_>>()?,
    })
}

/// Reorders `items` so that each of `ranks` (ascending, distinct, counted from
/// `base`) holds a weight a full sort by weight would put there.
fn place(items: &mut [(Weight, u32)], base: usize, ranks: &[usize]) {
    if ranks.is_empty() {
        return;
    }
    let middle = ranks.len() / 2;
    let at = ranks[middle] - base;
    let (left, _, right) = items.select_nth_unstable_by(at, |a, b| a.0.cmp(&b.0));
    place(left, base, &ranks[..middle]);
    place(right, base + at + 1, &ranks[middle + 1..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::EncodedBackend;
    use crate::pivot::PivotResult;
    use crate::quantile::materialized_keyed_answers;
    use proptest::prelude::*;
    use qjoin_data::Value;
    use qjoin_query::{Assignment, EncodedInstance};
    use qjoin_ranking::{AggregateKind, WeightBound};
    use qjoin_workload::random_acyclic::{shaped_instance, tie_heavy_ranking};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A leaf given as a list: `(weight, locator, key)` per answer. Several answers
    /// may share a locator, as the answers under one root row do.
    struct Listed(Vec<(f64, u32, u64)>);

    impl SolveBackend for Listed {
        type Inst = ();

        fn leaf_weights(&self, _: &()) -> Result<Vec<(Weight, u32)>> {
            Ok((self.0.iter())
                .map(|&(w, at, _)| (Weight::Num(w), at))
                .collect())
        }

        fn leaf_band(
            &self,
            _: &(),
            _: &[Variable],
            locators: &[u32],
            wanted: &(dyn Fn(&Weight) -> bool + Sync),
        ) -> Result<Vec<(Weight, CodeKey)>> {
            assert!(locators.windows(2).all(|pair| pair[0] < pair[1]));
            Ok((self.0.iter())
                .filter(|(_, at, _)| locators.contains(at))
                .map(|&(w, _, key)| {
                    (
                        Weight::Num(w),
                        CodeKey::from_iter_of_len(1, [key].into_iter()),
                    )
                })
                .filter(|(w, _)| wanted(w))
                .collect())
        }

        fn count(&self, _: &()) -> Result<u128> {
            unreachable!("the leaf does not count")
        }
        fn database_size(&self, _: &()) -> usize {
            unreachable!("the leaf has no threshold")
        }
        fn select_pivot(&self, _: &()) -> Result<PivotResult> {
            unreachable!("the leaf does not pivot")
        }
        fn trim_between(&self, _: &(), _: &WeightBound, _: &WeightBound) -> Result<()> {
            unreachable!("the leaf does not trim")
        }
        fn answer_from_key(&self, _: &[Variable], _: &CodeKey) -> Assignment {
            unreachable!("the leaf does not decode")
        }
    }

    impl Listed {
        /// The whole leaf sorted by `(weight, key)`, as `(weight bits, key)`.
        fn sorted(&self) -> Vec<(u64, u64)> {
            let mut all: Vec<(Weight, u64)> =
                (self.0.iter().map(|&(w, _, key)| (Weight::Num(w), key))).collect();
            all.sort_by(keyed_answer_cmp);
            all.iter().map(|(w, key)| (bits(w)[0], *key)).collect()
        }

        fn select(&self, ranks: &[u128]) -> Leaf {
            select_ranks(self, &(), &[], ranks).unwrap()
        }

        fn selected(&self, ranks: &[u128]) -> Vec<(u64, u64)> {
            let picked = self.select(ranks).selected;
            picked
                .iter()
                .map(|(w, key)| (bits(w)[0], key.as_slice()[0]))
                .collect()
        }
    }

    fn bits(w: &Weight) -> Vec<u64> {
        match w {
            Weight::Num(x) => vec![x.to_bits()],
            Weight::Vec(v) => v.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// A leaf with heavy ties: weight `i % 7`, four answers per locator, keys
    /// descending so that no tie is already in key order.
    fn tied_leaf() -> Listed {
        Listed(
            (0..97u32)
                .map(|i| (f64::from(i * 5 % 7), i / 4, u64::from(1000 - i)))
                .collect(),
        )
    }

    #[test]
    fn ties_are_decided_by_total_cmp_so_negative_zero_sorts_first() {
        // Under the derived `==`, `-0.0` and `+0.0` are one weight; under `cmp` they
        // are two, and the full sort puts every `-0.0` before every `+0.0`.
        let leaf = Listed(vec![
            (0.0, 0, 1),
            (-0.0, 0, 9),
            (0.0, 1, 5),
            (-0.0, 1, 7),
            (-1.0, 2, 3),
        ]);
        let sorted = leaf.sorted();
        assert_eq!(
            sorted.iter().map(|&(_, key)| key).collect::<Vec<_>>(),
            [3, 7, 9, 1, 5]
        );
        for rank in 0..5u128 {
            assert_eq!(
                leaf.selected(&[rank]),
                [sorted[rank as usize]],
                "rank {rank}"
            );
        }
        // Each zero's band holds its own two answers, not all four.
        assert_eq!(leaf.select(&[1]).keyed, 2);
        assert_eq!(leaf.select(&[1, 3]).keyed, 4);
    }

    #[test]
    fn below_is_counted_over_the_whole_leaf() {
        // The selection leaves the lighter answers in no particular slice order, and
        // with several ranks in flight no sub-slice holds them all: `below` comes
        // from a scan of the whole leaf, and every rank must index the full sort.
        let leaf = tied_leaf();
        for (rank, expected) in leaf.sorted().into_iter().enumerate() {
            assert_eq!(leaf.selected(&[rank as u128]), [expected], "rank {rank}");
            let with_neighbours = [96, rank as u128, 0];
            assert_eq!(leaf.selected(&with_neighbours)[1], expected, "rank {rank}");
        }
    }

    #[test]
    fn unsorted_duplicate_ranks_come_back_in_request_order() {
        let leaf = tied_leaf();
        let sorted = leaf.sorted();
        let ranks = [90u128, 3, 41, 3, 0, 96, 41, 42];
        let expected: Vec<(u64, u64)> = ranks.iter().map(|&r| sorted[r as usize]).collect();
        assert_eq!(leaf.selected(&ranks), expected);
        assert_eq!(leaf.select(&ranks).walked, 97);
        assert!(leaf.selected(&[]).is_empty());
    }

    #[test]
    fn ranks_past_the_end_mean_the_last_answer() {
        let leaf = tied_leaf();
        let last = *leaf.sorted().last().unwrap();
        assert_eq!(leaf.selected(&[97, u128::MAX, 96]), [last, last, last]);
    }

    #[test]
    fn pass_two_keeps_an_answer_for_its_weight_not_for_its_locator() {
        // Every locator of `tied_leaf` mixes weights: walking a tied locator meets
        // answers of other weights, and only the recomputed weight admits one.
        let leaf = tied_leaf();
        let of_weight_three = leaf.0.iter().filter(|(w, _, _)| *w == 3.0).count();
        let rank = leaf.0.iter().filter(|(w, _, _)| *w < 3.0).count();
        let picked = leaf.select(&[rank as u128]);
        assert_eq!(picked.keyed, of_weight_three);
        assert_eq!(bits(&picked.selected[0].0), bits(&Weight::Num(3.0)));
    }

    #[test]
    fn an_empty_leaf_is_no_answers() {
        let empty = select_ranks(&Listed(Vec::new()), &(), &[], &[0]);
        assert!(matches!(empty, Err(CoreError::NoAnswers)));
        assert!(matches!(locator(u32::MAX as usize), Ok(u32::MAX)));
        match locator(u32::MAX as usize + 1) {
            Err(CoreError::TooLarge(limit)) => assert!(limit.contains("32 bits"), "{limit}"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On the encoded leaf, at one and four threads, `select_ranks` returns — for
        /// every single rank and for random rank sets — exactly the element of the
        /// fully sorted `(weight, projected values)` list at that rank.
        #[test]
        fn select_ranks_indexes_the_full_sort(
            seed in 0u64..100_000,
            shape in 0usize..6,
            kind in 0usize..4,
            domain in 0usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let instance = shaped_instance(shape, seed);
            let kind = [AggregateKind::Sum, AggregateKind::Min, AggregateKind::Max, AggregateKind::Lex][kind];
            let ranking = tie_heavy_ranking(&instance, kind, domain);
            let original = instance.query().variables();
            let mut sorted = materialized_keyed_answers(&instance, &ranking, &original).unwrap();
            sorted.sort_by(keyed_answer_cmp);
            let encoded = EncodedInstance::from_instance(&instance).unwrap();
            let enc = EncodedBackend::new(&encoded, &ranking);
            if sorted.is_empty() {
                prop_assert!(matches!(select_ranks(&enc, &encoded, &original, &[0]), Err(CoreError::NoAnswers)));
                return Ok(());
            }
            let n = sorted.len();
            let mut rank_sets: Vec<Vec<u128>> = (0..n as u128).map(|rank| vec![rank]).collect();
            for _ in 0..6 {
                let size = rng.random_range(1..=9usize);
                rank_sets.push((0..size).map(|_| rng.random_range(0..n as u128 + 2)).collect());
            }
            let expected = |rank: u128| {
                let (weight, values) = &sorted[(rank as usize).min(n - 1)];
                (bits(weight), values.clone())
            };
            for threads in [1usize, 4] {
                let pool = qjoin_par::Pool::new(threads);
                for ranks in &rank_sets {
                    let context = format!("{ranking} T={threads} ranks {ranks:?} of {n}");
                    let want: Vec<_> = ranks.iter().map(|&rank| expected(rank)).collect();
                    let from_enc = qjoin_par::with_pool(&pool, || {
                        select_ranks(&enc, &encoded, &original, ranks).unwrap()
                    });
                    let decoded: Vec<_> = (from_enc.selected.iter())
                        .map(|(weight, key)| {
                            let answer = enc.answer_from_key(&original, key);
                            let values = original.iter().map(|v| answer.get(v).unwrap().clone());
                            (bits(weight), values.collect::<Vec<Value>>())
                        })
                        .collect();
                    prop_assert_eq!(&decoded, &want, "{}: encoded", context);
                    prop_assert_eq!(from_enc.walked, n);
                    // The leaf keys exactly the answers tied with a target weight.
                    let tied = sorted.iter().filter(|(w, _)| {
                        want.iter().any(|(target, _)| *target == bits(w))
                    });
                    let tied = tied.count();
                    prop_assert_eq!(from_enc.keyed, tied, "{}: encoded band", context);
                }
            }
        }
    }
}
