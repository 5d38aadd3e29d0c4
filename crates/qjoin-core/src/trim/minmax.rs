//! Exact trimming for MIN and MAX (Section 5.1, Lemma 5.2, Algorithm 3).
//!
//! The key observation is that MIN/MAX inequalities decompose into unary predicates:
//!
//! * `max{U_w} < λ` holds iff every weighted variable's weight is `< λ` — a pure
//!   filter;
//! * `max{U_w} > λ` holds iff *some* weighted variable's weight is `> λ`; the
//!   satisfying assignments split into the disjoint partitions
//!   `P_i = {w_{x_1} ≤ λ, ..., w_{x_{i-1}} ≤ λ, w_{x_i} > λ}` (Figure 3), each a
//!   conjunction of unary predicates.
//!
//! MIN is symmetric. Both constructions run in linear time and keep the query acyclic,
//! so combined with the generic pivot they yield Theorem 5.3.

use super::{
    handle_trivial, partition_union_trim, TrimPlan, Trimmer, UnaryConjunction, UnaryWeightPred,
};
use crate::{CoreError, Result};
use qjoin_query::Instance;
use qjoin_ranking::{AggregateKind, CmpOp, RankPredicate, Ranking};

/// The exact trimmer for the MIN and MAX ranking functions.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinMaxTrimmer;

impl Trimmer for MinMaxTrimmer {
    fn trim(
        &self,
        instance: &Instance,
        ranking: &Ranking,
        predicate: &RankPredicate,
    ) -> Result<Instance> {
        if let Some(result) = handle_trivial(instance, predicate) {
            return result;
        }
        match minmax_partition_plan(ranking, predicate)? {
            TrimPlan::KeepAll => Ok(instance.clone()),
            TrimPlan::DropAll => super::empty_copy(instance),
            TrimPlan::Partitions(partitions) => {
                partition_union_trim(instance, ranking, &partitions)
            }
        }
    }

    fn name(&self) -> &'static str {
        "minmax"
    }
}

/// Reduces a non-degenerate MIN/MAX predicate to its disjoint unary partitions
/// (Lemma 5.2 / Figure 3), for the row [`MinMaxTrimmer`] (the encoded path searches
/// MIN/MAX weights instead).
pub(crate) fn minmax_partition_plan(
    ranking: &Ranking,
    predicate: &RankPredicate,
) -> Result<TrimPlan> {
    let bound = predicate
        .finite_bound()
        .and_then(|w| w.as_num())
        .ok_or_else(|| {
            CoreError::UnsupportedPredicate("MIN/MAX trimming requires a scalar bound".to_string())
        })?;
    let weighted: Vec<_> = ranking.weighted_vars().to_vec();
    if weighted.is_empty() {
        // With no weighted variables every answer has the identity weight; the
        // strict predicate either keeps everything or nothing.
        let identity = ranking.identity();
        return Ok(if predicate.satisfied_by(ranking, &identity) {
            TrimPlan::KeepAll
        } else {
            TrimPlan::DropAll
        });
    }

    let partitions: Vec<UnaryConjunction> = match (ranking.kind(), predicate.op) {
        // max < λ ⇔ all weights < λ.
        (AggregateKind::Max, CmpOp::Lt) => vec![weighted
            .iter()
            .map(|v| (v.clone(), UnaryWeightPred::Lt(bound)))
            .collect()],
        // min > λ ⇔ all weights > λ.
        (AggregateKind::Min, CmpOp::Gt) => vec![weighted
            .iter()
            .map(|v| (v.clone(), UnaryWeightPred::Gt(bound)))
            .collect()],
        // max > λ ⇔ some weight > λ: partition by the first variable exceeding λ.
        (AggregateKind::Max, CmpOp::Gt) => (0..weighted.len())
            .map(|i| {
                let mut conj: UnaryConjunction = weighted[..i]
                    .iter()
                    .map(|v| (v.clone(), UnaryWeightPred::Le(bound)))
                    .collect();
                conj.push((weighted[i].clone(), UnaryWeightPred::Gt(bound)));
                conj
            })
            .collect(),
        // min < λ ⇔ some weight < λ: partition by the first variable below λ.
        (AggregateKind::Min, CmpOp::Lt) => (0..weighted.len())
            .map(|i| {
                let mut conj: UnaryConjunction = weighted[..i]
                    .iter()
                    .map(|v| (v.clone(), UnaryWeightPred::Ge(bound)))
                    .collect();
                conj.push((weighted[i].clone(), UnaryWeightPred::Lt(bound)));
                conj
            })
            .collect(),
        (other, _) => {
            return Err(CoreError::UnsupportedRanking(format!(
                "MinMaxTrimmer cannot trim {other:?} predicates"
            )))
        }
    };
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
    use qjoin_query::JoinQuery;
    use qjoin_ranking::Weight;

    /// Example 5.1 of the paper: three unary relations and MAX over all of them.
    fn example_5_1_instance() -> Instance {
        let q = JoinQuery::new(vec![
            qjoin_query::Atom::from_names("A", &["x1"]),
            qjoin_query::Atom::from_names("B", &["x2"]),
            qjoin_query::Atom::from_names("C", &["x3"]),
        ]);
        let a = Relation::from_rows("A", &[&[2], &[8], &[12]]).unwrap();
        let b = Relation::from_rows("B", &[&[5], &[11]]).unwrap();
        let c = Relation::from_rows("C", &[&[1], &[9], &[15]]).unwrap();
        Instance::new(q, Database::from_relations([a, b, c]).unwrap()).unwrap()
    }

    /// Counts answers of `instance` whose ranking weight satisfies `pred` by brute
    /// force.
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
    fn example_5_1_max_less_than_ten() {
        let inst = example_5_1_instance();
        let ranking = Ranking::max(vars(&["x1", "x2", "x3"]));
        let pred = RankPredicate::less_than(Weight::num(10.0));
        let trimmed = MinMaxTrimmer.trim(&inst, &ranking, &pred).unwrap();
        // max < 10 keeps A ∈ {2,8}, B ∈ {5}, C ∈ {1,9}: 2·1·2 = 4 answers.
        assert_eq!(count_answers(&trimmed).unwrap(), 4);
        assert_eq!(
            count_answers(&trimmed).unwrap(),
            brute_force_count(&inst, &ranking, &pred)
        );
        // The less-than case is a pure filter: no new variable.
        assert_eq!(trimmed.query(), inst.query());
    }

    #[test]
    fn example_5_1_max_greater_than_ten() {
        let inst = example_5_1_instance();
        let ranking = Ranking::max(vars(&["x1", "x2", "x3"]));
        let pred = RankPredicate::greater_than(Weight::num(10.0));
        let trimmed = MinMaxTrimmer.trim(&inst, &ranking, &pred).unwrap();
        // Total answers 3·2·3 = 18; those with max < 10 are 4; max = 10 impossible.
        assert_eq!(count_answers(&trimmed).unwrap(), 14);
        assert_eq!(
            count_answers(&trimmed).unwrap(),
            brute_force_count(&inst, &ranking, &pred)
        );
        // The greater-than case introduces the partition variable on every atom.
        assert!(trimmed.query().atoms().iter().all(|a| a.arity() == 2));
        assert!(qjoin_query::acyclicity::is_acyclic(trimmed.query()));
    }

    #[test]
    fn min_trimmings_are_symmetric() {
        let inst = example_5_1_instance();
        let ranking = Ranking::min(vars(&["x1", "x2", "x3"]));
        for bound in [1.0, 5.0, 9.0, 100.0] {
            for pred in [
                RankPredicate::less_than(Weight::num(bound)),
                RankPredicate::greater_than(Weight::num(bound)),
            ] {
                let trimmed = MinMaxTrimmer.trim(&inst, &ranking, &pred).unwrap();
                assert_eq!(
                    count_answers(&trimmed).unwrap(),
                    brute_force_count(&inst, &ranking, &pred),
                    "bound {bound}, pred {pred}"
                );
                assert!(qjoin_query::acyclicity::is_acyclic(trimmed.query()));
            }
        }
    }

    #[test]
    fn max_trimming_on_a_join_with_shared_variables() {
        // 3-path query, MAX over {x1, x3}: weighted variables in non-adjacent atoms.
        let r1 = Relation::from_rows("R1", &[&[1, 1], &[12, 1], &[3, 2]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 4], &[2, 4], &[2, 6]]).unwrap();
        let r3 = Relation::from_rows("R3", &[&[4, 2], &[4, 20], &[6, 7]]).unwrap();
        let inst = Instance::new(
            path_query(3),
            Database::from_relations([r1, r2, r3]).unwrap(),
        )
        .unwrap();
        let ranking = Ranking::max(vars(&["x1", "x4"]));
        for bound in [2.0, 5.0, 7.0, 12.0, 25.0] {
            for pred in [
                RankPredicate::less_than(Weight::num(bound)),
                RankPredicate::greater_than(Weight::num(bound)),
            ] {
                let trimmed = MinMaxTrimmer.trim(&inst, &ranking, &pred).unwrap();
                assert_eq!(
                    count_answers(&trimmed).unwrap(),
                    brute_force_count(&inst, &ranking, &pred),
                    "bound {bound}, pred {pred}"
                );
            }
        }
    }

    #[test]
    fn trimmed_answers_project_back_to_original_answers() {
        let inst = example_5_1_instance();
        let ranking = Ranking::max(vars(&["x1", "x2", "x3"]));
        let pred = RankPredicate::greater_than(Weight::num(10.0));
        let trimmed = MinMaxTrimmer.trim(&inst, &ranking, &pred).unwrap();
        let original_rows: std::collections::HashSet<Vec<qjoin_data::Value>> =
            materialize(&inst).unwrap().rows().iter().cloned().collect();
        let original_vars = inst.query().variables();
        let trimmed_answers = materialize(&trimmed).unwrap();
        for asg in trimmed_answers.iter_assignments() {
            let projected: Vec<qjoin_data::Value> = original_vars
                .iter()
                .map(|v| asg.get(v).unwrap().clone())
                .collect();
            assert!(original_rows.contains(&projected));
            assert!(pred.satisfied_by(&ranking, &ranking.weight_of(&asg.project(&original_vars))));
        }
    }

    #[test]
    fn wrong_ranking_kind_is_rejected() {
        let inst = example_5_1_instance();
        let ranking = Ranking::sum(vars(&["x1"]));
        let pred = RankPredicate::less_than(Weight::num(1.0));
        assert!(matches!(
            MinMaxTrimmer.trim(&inst, &ranking, &pred).unwrap_err(),
            CoreError::UnsupportedRanking(_)
        ));
    }

    #[test]
    fn vector_bounds_are_rejected() {
        let inst = example_5_1_instance();
        let ranking = Ranking::max(vars(&["x1"]));
        let pred = RankPredicate::less_than(Weight::Vec(vec![1.0]));
        assert!(matches!(
            MinMaxTrimmer.trim(&inst, &ranking, &pred).unwrap_err(),
            CoreError::UnsupportedPredicate(_)
        ));
    }

    #[test]
    fn empty_weighted_variable_set_degenerates() {
        let inst = example_5_1_instance();
        let ranking = Ranking::max(vec![]);
        // identity of MAX is -∞, so "< 0" keeps everything, "> 0" keeps nothing.
        let keep = MinMaxTrimmer
            .trim(&inst, &ranking, &RankPredicate::less_than(Weight::num(0.0)))
            .unwrap();
        assert_eq!(count_answers(&keep).unwrap(), count_answers(&inst).unwrap());
        let drop = MinMaxTrimmer
            .trim(
                &inst,
                &ranking,
                &RankPredicate::greater_than(Weight::num(0.0)),
            )
            .unwrap();
        assert_eq!(count_answers(&drop).unwrap(), 0);
    }
}

#[cfg(test)]
mod quantile_preservation_tests {
    use super::*;
    use crate::trim::test_support::{assert_exact_partition_at_phi, small_random_instance};

    /// MIN/MAX trimming at the φ-quantile weight of small random acyclic
    /// instances must be exact and must preserve the quantile answer.
    #[test]
    fn minmax_trim_preserves_phi_quantile_on_random_instances() {
        let mut checked = 0usize;
        for seed in 0..12u64 {
            for atoms in 1..=3usize {
                let instance = small_random_instance(seed, atoms);
                let vars = instance.query().variables();
                for ranking in [Ranking::min(vars.clone()), Ranking::max(vars.clone())] {
                    for phi in [0.1, 0.5, 0.9] {
                        if assert_exact_partition_at_phi(&MinMaxTrimmer, &instance, &ranking, phi) {
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(
            checked >= 40,
            "too few non-empty cases exercised: {checked}"
        );
    }
}
