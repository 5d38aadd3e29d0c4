//! ε-sketches of weight multisets (Lemma 6.3, with the bucket adjustment of Section 6).
//!
//! A sketch compresses a multiset of real numbers by partitioning its sorted order into
//! buckets and replacing every element of a bucket by the bucket's extreme value. If
//! the bucket starting at rank `r` contains at most `max(1, ⌊ε·r⌋)` elements, then for
//! every threshold `λ` the number of elements below `λ` changes by at most a factor
//! `1 − ε` (and never increases when rounding towards the extreme).
//!
//! The lossy SUM trimming additionally needs every *source* (the tuple that contributed
//! an element together with its multiplicity) to land in exactly one bucket, because a
//! source is later rewired to join a single bucket copy of its parent tuple. Instead of
//! the paper's post-hoc boundary adjustment, this implementation buckets at source
//! granularity directly: a source whose multiplicity alone exceeds the allowed bucket
//! size forms a bucket of its own, which is harmless because all of its elements are
//! equal (rounding is then the identity for that bucket).

/// The rounding direction of a sketch.
///
/// * [`RoundDirection::Up`] rounds every element to its bucket's **maximum**; counts
///   *below* a threshold can only shrink. Used when trimming `sum < λ`, so that every
///   retained answer genuinely satisfies the predicate.
/// * [`RoundDirection::Down`] rounds to the bucket's **minimum**; counts *above* a
///   threshold can only shrink. Used when trimming `sum > λ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundDirection {
    /// Round elements up to the bucket maximum (sound for `< λ` predicates).
    Up,
    /// Round elements down to the bucket minimum (sound for `> λ` predicates).
    Down,
}

/// One input element of a sketch: a value with a multiplicity, contributed by a single
/// source identified by `source`.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchEntry<S> {
    /// The numeric value (a partial sum in the lossy trimming).
    pub value: f64,
    /// How many underlying elements share this value from this source.
    pub multiplicity: u128,
    /// An opaque source identifier (the contributing tuple in the lossy trimming).
    pub source: S,
}

/// One bucket of a sketch.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchBucket<S> {
    /// The value every element of the bucket is rounded to (the bucket max for
    /// [`RoundDirection::Up`], the min for [`RoundDirection::Down`]).
    pub rounded_value: f64,
    /// Total multiplicity of the bucket.
    pub multiplicity: u128,
    /// The sources whose entries were placed in this bucket.
    pub sources: Vec<S>,
}

/// Builds an ε-sketch of the multiset described by `entries`.
///
/// Every source appears in exactly one bucket. For `RoundDirection::Up` the guarantee
/// is `(1 − ε)·↓λ(L) ≤ ↓λ(S) ≤ ↓λ(L)` for every `λ`, where `↓λ` counts elements
/// strictly below `λ`; for `Down` the symmetric guarantee holds for counts strictly
/// above `λ`.
pub fn sketch<S>(
    mut entries: Vec<SketchEntry<S>>,
    epsilon: f64,
    direction: RoundDirection,
) -> Vec<SketchBucket<S>> {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
    match direction {
        RoundDirection::Up => entries.sort_by(|a, b| a.value.total_cmp(&b.value)),
        RoundDirection::Down => entries.sort_by(|a, b| b.value.total_cmp(&a.value)),
    }

    let mut buckets: Vec<SketchBucket<S>> = Vec::new();
    let mut processed: u128 = 0;
    let mut iter = entries.into_iter().peekable();
    while let Some(first) = iter.next() {
        // A new bucket starts at rank `processed`; it may hold up to
        // max(1, ⌊ε · processed⌋) elements before rounding could violate the bound
        // (a single oversized source is always allowed — it is homogeneous).
        let allowance = ((epsilon * processed as f64).floor() as u128).max(1);
        let mut bucket_mult = first.multiplicity;
        let mut rounded_value = first.value;
        let mut sources = vec![first.source];
        while let Some(next) = iter.peek() {
            if bucket_mult + next.multiplicity > allowance {
                break;
            }
            let next = iter.next().expect("peeked");
            bucket_mult += next.multiplicity;
            rounded_value = next.value;
            sources.push(next.source);
        }
        processed += bucket_mult;
        buckets.push(SketchBucket {
            rounded_value,
            multiplicity: bucket_mult,
            sources,
        });
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts the elements of a multiset strictly below `lambda`.
    fn count_below(entries: &[(f64, u128)], lambda: f64) -> u128 {
        entries
            .iter()
            .filter(|(v, _)| *v < lambda)
            .map(|(_, m)| m)
            .sum()
    }

    /// Counts the elements of a multiset strictly above `lambda`.
    fn count_above(entries: &[(f64, u128)], lambda: f64) -> u128 {
        entries
            .iter()
            .filter(|(v, _)| *v > lambda)
            .map(|(_, m)| m)
            .sum()
    }

    fn entries(values: &[(f64, u128)]) -> Vec<SketchEntry<usize>> {
        values
            .iter()
            .enumerate()
            .map(|(i, &(value, multiplicity))| SketchEntry {
                value,
                multiplicity,
                source: i,
            })
            .collect()
    }

    fn bucket_pairs<S>(buckets: &[SketchBucket<S>]) -> Vec<(f64, u128)> {
        buckets
            .iter()
            .map(|b| (b.rounded_value, b.multiplicity))
            .collect()
    }

    #[test]
    fn every_source_lands_in_exactly_one_bucket() {
        let input = entries(&[(1.0, 3), (2.0, 50), (2.0, 1), (5.0, 2), (9.0, 7), (9.0, 1)]);
        let n_sources = input.len();
        let buckets = sketch(input, 0.3, RoundDirection::Up);
        let mut seen: Vec<usize> = buckets.iter().flat_map(|b| b.sources.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n_sources).collect::<Vec<_>>());
    }

    #[test]
    fn total_multiplicity_is_preserved() {
        let input = entries(&[(1.0, 3), (4.0, 10), (4.5, 2), (7.0, 40)]);
        let total: u128 = input.iter().map(|e| e.multiplicity).sum();
        for dir in [RoundDirection::Up, RoundDirection::Down] {
            let buckets = sketch(input.clone(), 0.2, dir);
            let sketched: u128 = buckets.iter().map(|b| b.multiplicity).sum();
            assert_eq!(sketched, total);
        }
    }

    #[test]
    fn rounding_up_never_increases_counts_below() {
        let raw: Vec<(f64, u128)> = (0..200)
            .map(|i| ((i * 13 % 97) as f64, (i % 5 + 1) as u128))
            .collect();
        let buckets = sketch(entries(&raw), 0.25, RoundDirection::Up);
        let sketched = bucket_pairs(&buckets);
        for lambda in [0.0, 5.0, 20.0, 48.5, 96.0, 200.0] {
            let exact = count_below(&raw, lambda);
            let approx = count_below(&sketched, lambda);
            assert!(approx <= exact, "λ={lambda}: {approx} > {exact}");
            assert!(
                approx as f64 >= (1.0 - 0.25) * exact as f64 - 1e-9,
                "λ={lambda}: {approx} < (1-ε)·{exact}"
            );
        }
    }

    #[test]
    fn rounding_down_never_increases_counts_above() {
        let raw: Vec<(f64, u128)> = (0..300).map(|i| ((i * 31 % 113) as f64, 1u128)).collect();
        let buckets = sketch(entries(&raw), 0.2, RoundDirection::Down);
        let sketched = bucket_pairs(&buckets);
        for lambda in [-1.0, 3.0, 50.0, 90.0, 112.0] {
            let exact = count_above(&raw, lambda);
            let approx = count_above(&sketched, lambda);
            assert!(approx <= exact, "λ={lambda}");
            assert!(
                approx as f64 >= (1.0 - 0.2) * exact as f64 - 1e-9,
                "λ={lambda}: {approx} < (1-ε)·{exact}"
            );
        }
    }

    #[test]
    fn sketch_size_is_logarithmic_in_the_multiset_size() {
        // 100k elements with distinct values: the sketch must be much smaller.
        let raw: Vec<(f64, u128)> = (0..100_000).map(|i| (i as f64, 1u128)).collect();
        let eps = 0.1;
        let buckets = sketch(entries(&raw), eps, RoundDirection::Up);
        let n = raw.len() as f64;
        // Bound: ~ 1/ε singleton buckets plus log_{1+ε}(n) geometric ones.
        let bound = (1.0 / eps) + (n.ln() / (1.0 + eps).ln()) + 10.0;
        assert!(
            (buckets.len() as f64) < bound,
            "sketch has {} buckets, bound {bound}",
            buckets.len()
        );
    }

    #[test]
    fn oversized_sources_form_their_own_homogeneous_bucket() {
        // The second entry has a huge multiplicity; it must not be split and must not
        // distort counts for thresholds between values.
        let raw = vec![(1.0, 1u128), (2.0, 1_000_000), (3.0, 1)];
        let buckets = sketch(entries(&raw), 0.1, RoundDirection::Up);
        let sketched = bucket_pairs(&buckets);
        assert_eq!(count_below(&sketched, 2.0), count_below(&raw, 2.0));
        assert_eq!(count_below(&sketched, 2.5), count_below(&raw, 2.5));
        assert_eq!(count_below(&sketched, 3.5), count_below(&raw, 3.5));
        // The oversized source is alone in its bucket.
        let big = buckets
            .iter()
            .find(|b| b.multiplicity >= 1_000_000)
            .unwrap();
        assert_eq!(big.sources.len(), 1);
    }

    #[test]
    fn empty_input_produces_no_buckets() {
        let buckets: Vec<SketchBucket<usize>> = sketch(Vec::new(), 0.5, RoundDirection::Up);
        assert!(buckets.is_empty());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_panics() {
        sketch(entries(&[(1.0, 1)]), 1.5, RoundDirection::Up);
    }

    #[test]
    fn tiny_epsilon_degenerates_to_exact_representation() {
        let raw: Vec<(f64, u128)> = (0..50).map(|i| (i as f64, 1u128)).collect();
        let buckets = sketch(entries(&raw), 1e-9, RoundDirection::Up);
        assert_eq!(buckets.len(), raw.len());
        let sketched = bucket_pairs(&buckets);
        for lambda in 0..51 {
            assert_eq!(
                count_below(&sketched, lambda as f64),
                count_below(&raw, lambda as f64)
            );
        }
    }
}
