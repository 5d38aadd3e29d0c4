//! Exact trimming for lexicographic orders (Section 5.2, Lemma 5.4).
//!
//! A lexicographic inequality `(w_{x_1}, ..., w_{x_r}) <_LEX (λ_1, ..., λ_r)` holds iff
//! for some position `i` the first `i-1` components are equal to the bound and the
//! `i`-th is strictly smaller. These `r` cases are disjoint and each is a conjunction
//! of unary predicates, so the partition-union construction applies verbatim.

use super::{
    handle_trivial, partition_union_trim, TrimPlan, Trimmer, UnaryConjunction, UnaryWeightPred,
};
use crate::{CoreError, Result};
use qjoin_query::Instance;
use qjoin_ranking::{AggregateKind, CmpOp, RankPredicate, Ranking};

/// The exact trimmer for LEX ranking functions.
#[derive(Clone, Copy, Debug, Default)]
pub struct LexTrimmer;

impl Trimmer for LexTrimmer {
    fn trim(
        &self,
        instance: &Instance,
        ranking: &Ranking,
        predicate: &RankPredicate,
    ) -> Result<Instance> {
        if let Some(result) = handle_trivial(instance, predicate) {
            return result;
        }
        match lex_partition_plan(ranking, predicate)? {
            TrimPlan::KeepAll => Ok(instance.clone()),
            TrimPlan::DropAll => super::empty_copy(instance),
            TrimPlan::Partitions(partitions) => {
                partition_union_trim(instance, ranking, &partitions)
            }
        }
    }

    fn name(&self) -> &'static str {
        "lex"
    }
}

/// Reduces a non-degenerate LEX predicate to its disjoint unary partitions
/// (one per position at which the comparison can first differ, Lemma 5.4).
/// The row [`LexTrimmer`]'s (the encoded path searches LEX weights instead).
pub(crate) fn lex_partition_plan(ranking: &Ranking, predicate: &RankPredicate) -> Result<TrimPlan> {
    if ranking.kind() != AggregateKind::Lex {
        return Err(CoreError::UnsupportedRanking(format!(
            "LexTrimmer cannot trim {:?} predicates",
            ranking.kind()
        )));
    }
    let bound = predicate
        .finite_bound()
        .and_then(|w| w.as_vec())
        .ok_or_else(|| {
            CoreError::UnsupportedPredicate("LEX trimming requires a vector bound".to_string())
        })?;
    let weighted = ranking.weighted_vars();
    if bound.len() != weighted.len() {
        return Err(CoreError::UnsupportedPredicate(format!(
            "LEX bound has {} components but the ranking has {} variables",
            bound.len(),
            weighted.len()
        )));
    }
    if weighted.is_empty() {
        // Zero-length tuples are all equal; a strict comparison never holds.
        return Ok(TrimPlan::DropAll);
    }

    let partitions: Vec<UnaryConjunction> = (0..weighted.len())
        .map(|i| {
            let mut conj: UnaryConjunction = weighted[..i]
                .iter()
                .zip(bound[..i].iter())
                .map(|(v, &b)| (v.clone(), UnaryWeightPred::Eq(b)))
                .collect();
            let last = match predicate.op {
                CmpOp::Lt => UnaryWeightPred::Lt(bound[i]),
                CmpOp::Gt => UnaryWeightPred::Gt(bound[i]),
            };
            conj.push((weighted[i].clone(), last));
            conj
        })
        .collect();
    Ok(TrimPlan::Partitions(partitions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::{Database, Relation};
    use qjoin_exec::count::count_answers;
    use qjoin_exec::yannakakis::materialize;
    use qjoin_query::query::path_query;
    use qjoin_query::variable::vars;
    use qjoin_ranking::Weight;

    fn three_path_instance() -> Instance {
        let r1 = Relation::from_rows("R1", &[&[1, 1], &[2, 1], &[3, 2], &[1, 2]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 4], &[1, 5], &[2, 4], &[2, 6]]).unwrap();
        let r3 = Relation::from_rows("R3", &[&[4, 2], &[4, 7], &[5, 1], &[6, 3]]).unwrap();
        Instance::new(
            path_query(3),
            Database::from_relations([r1, r2, r3]).unwrap(),
        )
        .unwrap()
    }

    fn brute_force_count(instance: &Instance, ranking: &Ranking, pred: &RankPredicate) -> u128 {
        let answers = materialize(instance).unwrap();
        let schema = answers.variables().to_vec();
        answers
            .rows()
            .iter()
            .filter(|row| pred.satisfied_by(ranking, &ranking.weight_of_row(&schema, row)))
            .count() as u128
    }

    #[test]
    fn lex_trimming_matches_brute_force_on_both_directions() {
        let inst = three_path_instance();
        let ranking = Ranking::lex(vars(&["x1", "x3", "x4"]));
        for bound in [
            vec![1.0, 4.0, 2.0],
            vec![2.0, 4.0, 7.0],
            vec![2.0, 6.0, 3.0],
            vec![0.0, 0.0, 0.0],
            vec![9.0, 9.0, 9.0],
        ] {
            for op in [CmpOp::Lt, CmpOp::Gt] {
                let pred = RankPredicate {
                    op,
                    bound: Weight::Vec(bound.clone()).into(),
                };
                let trimmed = LexTrimmer.trim(&inst, &ranking, &pred).unwrap();
                assert_eq!(
                    count_answers(&trimmed).unwrap(),
                    brute_force_count(&inst, &ranking, &pred),
                    "bound {bound:?}, op {op:?}"
                );
                assert!(qjoin_query::acyclicity::is_acyclic(trimmed.query()));
            }
        }
    }

    #[test]
    fn partitioning_is_lossless_around_a_concrete_answer() {
        // For any answer weight w, the three sets {<w}, {=w}, {>w} partition Q(D).
        let inst = three_path_instance();
        let ranking = Ranking::lex(vars(&["x2", "x4"]));
        let answers = materialize(&inst).unwrap();
        let schema = answers.variables().to_vec();
        let w = ranking.weight_of_row(&schema, &answers.rows()[answers.len() / 2]);
        let lt = LexTrimmer
            .trim(&inst, &ranking, &RankPredicate::less_than(w.clone()))
            .unwrap();
        let gt = LexTrimmer
            .trim(&inst, &ranking, &RankPredicate::greater_than(w.clone()))
            .unwrap();
        let n_lt = count_answers(&lt).unwrap();
        let n_gt = count_answers(&gt).unwrap();
        let n_eq = answers
            .rows()
            .iter()
            .filter(|row| ranking.weight_of_row(&schema, row) == w)
            .count() as u128;
        assert_eq!(n_lt + n_gt + n_eq, answers.len() as u128);
        assert!(n_eq >= 1);
    }

    #[test]
    fn lex_trimming_on_single_variable_behaves_like_a_filter() {
        let inst = three_path_instance();
        let ranking = Ranking::lex(vars(&["x1"]));
        let pred = RankPredicate::less_than(Weight::Vec(vec![2.0]));
        let trimmed = LexTrimmer.trim(&inst, &ranking, &pred).unwrap();
        assert_eq!(
            count_answers(&trimmed).unwrap(),
            brute_force_count(&inst, &ranking, &pred)
        );
        // A single LEX component yields a single partition: the query is unchanged.
        assert_eq!(trimmed.query(), inst.query());
    }

    #[test]
    fn mismatched_bound_length_is_rejected() {
        let inst = three_path_instance();
        let ranking = Ranking::lex(vars(&["x1", "x2"]));
        let pred = RankPredicate::less_than(Weight::Vec(vec![1.0]));
        assert!(matches!(
            LexTrimmer.trim(&inst, &ranking, &pred).unwrap_err(),
            CoreError::UnsupportedPredicate(_)
        ));
    }

    #[test]
    fn non_lex_rankings_are_rejected() {
        let inst = three_path_instance();
        let ranking = Ranking::sum(vars(&["x1"]));
        let pred = RankPredicate::less_than(Weight::num(1.0));
        assert!(matches!(
            LexTrimmer.trim(&inst, &ranking, &pred).unwrap_err(),
            CoreError::UnsupportedRanking(_)
        ));
    }

    #[test]
    fn scalar_bounds_are_rejected_for_lex() {
        let inst = three_path_instance();
        let ranking = Ranking::lex(vars(&["x1"]));
        let pred = RankPredicate::less_than(Weight::num(1.0));
        assert!(matches!(
            LexTrimmer.trim(&inst, &ranking, &pred).unwrap_err(),
            CoreError::UnsupportedPredicate(_)
        ));
    }
}

#[cfg(test)]
mod quantile_preservation_tests {
    use super::*;
    use crate::trim::test_support::{assert_exact_partition_at_phi, small_random_instance};
    use qjoin_query::Variable;

    /// LEX trimming at the φ-quantile weight of small random acyclic instances
    /// must be exact and must preserve the quantile answer.
    #[test]
    fn lex_trim_preserves_phi_quantile_on_random_instances() {
        let mut checked = 0usize;
        for seed in 0..12u64 {
            for atoms in 2..=3usize {
                let instance = small_random_instance(seed, atoms);
                let lex_vars: Vec<Variable> =
                    instance.query().variables().into_iter().take(2).collect();
                if lex_vars.is_empty() {
                    continue;
                }
                let ranking = Ranking::lex(lex_vars);
                for phi in [0.1, 0.5, 0.9] {
                    if assert_exact_partition_at_phi(&LexTrimmer, &instance, &ranking, phi) {
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked >= 20,
            "too few non-empty cases exercised: {checked}"
        );
    }
}
