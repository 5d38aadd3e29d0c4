//! ε-lossy trimming for additive inequalities (Section 6, Algorithm 4, Lemma 6.1).
//!
//! Exact trimming of `Σ w_x(x) < λ` is conditionally impossible for general acyclic
//! queries (Theorem 5.6), so the deterministic approximation of Theorem 6.2 relies on
//! a *lossy* trimming (Definition 3.5): the rewritten instance represents only a
//! `(1 − ε)` fraction of the qualifying answers, but every represented answer does
//! satisfy the predicate.
//!
//! The construction follows Algorithm 4: traverse a **binary** join tree bottom-up
//! maintaining, per tuple, an (approximate) sum `σ_s` and multiplicity `σ_m` describing
//! the partial answers of its subtree. The multiset of child sums flowing through a
//! join group is compressed with an ε′-sketch; each sketch bucket becomes a copy of the
//! parent tuple carrying the bucket's rounded sum, and a fresh variable `v_RS` rewires
//! every child tuple to join exactly the copy holding its bucket. Finally, root tuples
//! whose accumulated sum violates the inequality are removed.
//!
//! This is the paper-literal construction, one bound per pass, and the oracle of the
//! encoded path ([`crate::encoded`]), which builds the rewrite once per solve with both
//! roundings and filters its root per window. The two agree answer for answer while no
//! sketch bucket holds two sources; where sketches compress they bucket differently and
//! agree within ε only.
//!
//! Rounding direction matters for soundness: for `< λ` the sketch rounds **up**, so a
//! retained answer's true sum is at most the recorded sum and therefore below `λ`; for
//! `> λ` it rounds **down**, symmetrically.

use crate::sketch::{sketch, RoundDirection, SketchEntry};
use crate::trim::{handle_trivial, Trimmer};
use crate::{CoreError, Result};
use qjoin_data::{Database, Relation, Tuple, Value};
use qjoin_query::{binary, self_join, Atom, Instance, JoinQuery, Variable};
use qjoin_ranking::{AggregateKind, CmpOp, RankPredicate, Ranking, SumTupleWeights};
use std::collections::HashMap;

/// The ε-lossy trimmer for SUM predicates on arbitrary acyclic queries.
#[derive(Clone, Copy, Debug)]
pub struct LossySumTrimmer {
    /// The per-invocation loss budget ε ∈ (0, 1): at least a `1 − ε` fraction of the
    /// qualifying answers is retained.
    pub epsilon: f64,
}

impl LossySumTrimmer {
    /// Creates a lossy trimmer with the given per-invocation loss budget.
    pub fn new(epsilon: f64) -> Self {
        LossySumTrimmer { epsilon }
    }
}

impl Trimmer for LossySumTrimmer {
    fn trim(
        &self,
        instance: &Instance,
        ranking: &Ranking,
        predicate: &RankPredicate,
    ) -> Result<Instance> {
        if let Some(result) = handle_trivial(instance, predicate) {
            return result;
        }
        if ranking.kind() != AggregateKind::Sum {
            return Err(CoreError::UnsupportedRanking(format!(
                "LossySumTrimmer cannot trim {:?} predicates",
                ranking.kind()
            )));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(CoreError::InvalidEpsilon(self.epsilon));
        }
        let bound = predicate
            .finite_bound()
            .and_then(|w| w.as_num())
            .ok_or_else(|| {
                CoreError::UnsupportedPredicate("SUM trimming requires a scalar bound".to_string())
            })?;

        let instance = self_join::eliminate_self_joins(instance)?;
        let binarized = binary::binarize(&instance)?;
        let query = binarized.instance.query().clone();
        let tree = binarized.tree;
        let ell = query.num_atoms().max(1);
        // Algorithm 4, line 7: the per-level sketch error.
        let eps_prime = (self.epsilon / (4.0 * ell as f64)).clamp(1e-9, 0.999_999);
        let direction = match predicate.op {
            CmpOp::Lt => RoundDirection::Up,
            CmpOp::Gt => RoundDirection::Down,
        };

        let tuple_weights = SumTupleWeights::new(&query, ranking);

        // Mutable per-node state: the (growing) atom and the annotated tuples.
        struct NodeState {
            atom: Atom,
            tuples: Vec<AnnotatedTuple>,
        }
        #[derive(Clone)]
        struct AnnotatedTuple {
            tuple: Tuple,
            sum: f64,
            multiplicity: u128,
        }

        let mut states: Vec<NodeState> = (0..tree.num_nodes())
            .map(|node| {
                let atom_idx = tree.node(node).atom_index;
                let atom = query.atom(atom_idx).clone();
                let relation = binarized.instance.relation_of_atom(atom_idx);
                let tuples = relation
                    .iter()
                    .map(|t| AnnotatedTuple {
                        sum: tuple_weights.tuple_sum(ranking, atom_idx, t),
                        multiplicity: 1,
                        tuple: t.clone(),
                    })
                    .collect();
                NodeState { atom, tuples }
            })
            .collect();

        let mut all_vars: Vec<Variable> = query.variables();
        let mut bucket_counter: i64 = 0;

        for &node in &tree.bottom_up_order() {
            let children = tree.node(node).children.clone();
            for child in children {
                // The join columns between the parent and child atoms (original shared
                // variables only; previously added v-columns are never shared).
                let parent_vars = states[node].atom.variable_set();
                let child_vars = states[child].atom.variable_set();
                let shared: Vec<Variable> =
                    parent_vars.intersection(&child_vars).cloned().collect();
                let parent_pos: Vec<usize> = shared
                    .iter()
                    .map(|v| states[node].atom.positions_of(v)[0])
                    .collect();
                let child_pos: Vec<usize> = shared
                    .iter()
                    .map(|v| states[child].atom.positions_of(v)[0])
                    .collect();

                // Group the child's annotated tuples by the join key and sketch the
                // multiset of their sums, once per group.
                let mut group_members: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                for (i, at) in states[child].tuples.iter().enumerate() {
                    let key: Vec<Value> = child_pos.iter().map(|&p| at.tuple[p].clone()).collect();
                    group_members.entry(key).or_default().push(i);
                }
                // Per group: the sketch buckets as (bucket id, rounded sum, multiplicity).
                let mut group_buckets: HashMap<Vec<Value>, Vec<(i64, f64, u128)>> = HashMap::new();
                // Per child tuple: the id of the bucket it was assigned to.
                let mut child_bucket: Vec<i64> = vec![0; states[child].tuples.len()];
                // Iterate groups in sorted key order so bucket ids are deterministic
                // (the encoded construction walks groups in the same order: its
                // dictionary codes are order-preserving).
                let mut sorted_keys: Vec<&Vec<Value>> = group_members.keys().collect();
                sorted_keys.sort();
                for key in sorted_keys {
                    let members = &group_members[key];
                    let entries: Vec<SketchEntry<usize>> = members
                        .iter()
                        .map(|&i| SketchEntry {
                            value: states[child].tuples[i].sum,
                            multiplicity: states[child].tuples[i].multiplicity,
                            source: i,
                        })
                        .collect();
                    let buckets = sketch(entries, eps_prime, direction);
                    let mut summaries = Vec::with_capacity(buckets.len());
                    for bucket in buckets {
                        let id = bucket_counter;
                        bucket_counter += 1;
                        for &src in &bucket.sources {
                            child_bucket[src] = id;
                        }
                        summaries.push((id, bucket.rounded_value, bucket.multiplicity));
                    }
                    group_buckets.insert(key.clone(), summaries);
                }

                // Extend the child: one fresh column carrying its bucket id.
                let v = Variable::fresh("v_rs", all_vars.iter());
                all_vars.push(v.clone());
                states[child].atom = states[child].atom.with_extra_variable(v.clone());
                for (i, at) in states[child].tuples.iter_mut().enumerate() {
                    at.tuple = at.tuple.extended(Value::Int(child_bucket[i]));
                }

                // Extend the parent: one copy per bucket of the matching group, with the
                // bucket's sum absorbed into σ_s and its multiplicity into σ_m.
                states[node].atom = states[node].atom.with_extra_variable(v);
                let old_tuples = std::mem::take(&mut states[node].tuples);
                let mut new_tuples = Vec::with_capacity(old_tuples.len() * 2);
                for at in old_tuples {
                    let key: Vec<Value> = parent_pos.iter().map(|&p| at.tuple[p].clone()).collect();
                    let Some(buckets) = group_buckets.get(&key) else {
                        continue;
                    };
                    for &(id, rounded, multiplicity) in buckets {
                        new_tuples.push(AnnotatedTuple {
                            tuple: at.tuple.extended(Value::Int(id)),
                            sum: at.sum + rounded,
                            multiplicity: at.multiplicity.saturating_mul(multiplicity),
                        });
                    }
                }
                states[node].tuples = new_tuples;
            }
        }

        // Remove root tuples violating the inequality.
        let root = tree.root();
        states[root].tuples.retain(|at| match predicate.op {
            CmpOp::Lt => at.sum < bound,
            CmpOp::Gt => at.sum > bound,
        });

        // Assemble the rewritten instance. Node order follows the tree's node ids,
        // which map one-to-one onto the binarized query's atoms.
        let mut atoms: Vec<Atom> = vec![Atom::new("", vec![]); tree.num_nodes()];
        let mut db = Database::new();
        for (node, state) in states.into_iter().enumerate() {
            let atom_idx = tree.node(node).atom_index;
            let mut relation = Relation::new(state.atom.relation(), state.atom.arity());
            for at in state.tuples {
                relation.push_tuple(at.tuple)?;
            }
            db.add_relation(relation)?;
            atoms[atom_idx] = state.atom;
        }
        Ok(Instance::new(JoinQuery::new(atoms), db)?)
    }

    fn is_lossy(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "sum-lossy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::{Database, Relation};
    use qjoin_exec::count::count_answers;
    use qjoin_exec::yannakakis::materialize;
    use qjoin_query::query::{figure1_query, path_query};
    use qjoin_query::variable::vars;
    use qjoin_ranking::Weight;
    use std::collections::HashSet;

    fn brute_force_count(instance: &Instance, ranking: &Ranking, pred: &RankPredicate) -> u128 {
        let answers = materialize(instance).unwrap();
        let schema = answers.variables().to_vec();
        answers
            .rows()
            .iter()
            .filter(|row| pred.satisfied_by(ranking, &ranking.weight_of_row(&schema, row)))
            .count() as u128
    }

    fn three_path_instance(n: i64) -> Instance {
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        let mut r3 = Relation::new("R3", 2);
        for i in 0..n {
            r1.push(vec![Value::from(7 * i % 23), Value::from(i % 3)])
                .unwrap();
            r2.push(vec![Value::from(i % 3), Value::from(11 * i % 19)])
                .unwrap();
            r3.push(vec![Value::from(11 * i % 19), Value::from(5 * i % 29)])
                .unwrap();
        }
        Instance::new(
            path_query(3),
            Database::from_relations([r1, r2, r3]).unwrap(),
        )
        .unwrap()
    }

    /// Figure 4 of the paper: S(x, y) with sums {3, 4, 5} flowing into R(y, z).
    #[test]
    fn figure4_relational_representation() {
        let q = JoinQuery::new(vec![
            Atom::from_names("R", &["y", "z"]),
            Atom::from_names("S", &["x", "y"]),
        ]);
        let r = Relation::from_rows("R", &[&[1, 6]]).unwrap();
        let s = Relation::from_rows("S", &[&[2, 1], &[3, 1], &[4, 1]]).unwrap();
        let inst = Instance::new(q, Database::from_relations([r, s]).unwrap()).unwrap();
        let ranking = Ranking::sum(vars(&["x", "y", "z"]));
        // All three answers have sums 9, 10, 11; trim sum < 12 keeps all of them.
        let trimmer = LossySumTrimmer::new(0.5);
        let pred = RankPredicate::less_than(Weight::num(12.0));
        let trimmed = trimmer.trim(&inst, &ranking, &pred).unwrap();
        let kept = count_answers(&trimmed).unwrap();
        assert!(kept >= 2, "at least (1-ε)·3 answers survive, got {kept}");
        assert!(kept <= 3);
        // Both relations carry the fresh v_rs column.
        for atom in trimmed.query().atoms() {
            assert!(atom
                .variables()
                .iter()
                .any(|v| v.name().starts_with("v_rs")));
        }
        // With a bound below every sum, nothing survives.
        let none = trimmer
            .trim(&inst, &ranking, &RankPredicate::less_than(Weight::num(9.0)))
            .unwrap();
        assert_eq!(count_answers(&none).unwrap(), 0);
    }

    #[test]
    fn retained_answers_always_satisfy_the_predicate() {
        let inst = three_path_instance(12);
        let ranking = Ranking::sum(inst.query().variables());
        let trimmer = LossySumTrimmer::new(0.3);
        let original_vars = inst.query().variables();
        let all_rows: HashSet<Vec<Value>> =
            materialize(&inst).unwrap().rows().iter().cloned().collect();
        for bound in [10.0, 25.0, 40.0, 60.0] {
            for pred in [
                RankPredicate::less_than(Weight::num(bound)),
                RankPredicate::greater_than(Weight::num(bound)),
            ] {
                let trimmed = trimmer.trim(&inst, &ranking, &pred).unwrap();
                let answers = materialize(&trimmed).unwrap();
                let mut projected_seen = HashSet::new();
                for asg in answers.iter_assignments() {
                    let projected = asg.project(&original_vars);
                    let row: Vec<Value> = original_vars
                        .iter()
                        .map(|v| projected.get(v).unwrap().clone())
                        .collect();
                    assert!(all_rows.contains(&row), "not an original answer");
                    assert!(
                        pred.satisfied_by(&ranking, &ranking.weight_of(&projected)),
                        "answer violates {pred}"
                    );
                    assert!(projected_seen.insert(row), "projection must be injective");
                }
            }
        }
    }

    #[test]
    fn loss_is_bounded_by_epsilon() {
        let inst = three_path_instance(15);
        let ranking = Ranking::sum(inst.query().variables());
        for eps in [0.1, 0.3, 0.6] {
            let trimmer = LossySumTrimmer::new(eps);
            for bound in [15.0, 30.0, 50.0] {
                for pred in [
                    RankPredicate::less_than(Weight::num(bound)),
                    RankPredicate::greater_than(Weight::num(bound)),
                ] {
                    let exact = brute_force_count(&inst, &ranking, &pred);
                    let kept =
                        count_answers(&trimmer.trim(&inst, &ranking, &pred).unwrap()).unwrap();
                    assert!(kept <= exact);
                    assert!(
                        kept as f64 >= (1.0 - eps) * exact as f64 - 1e-9,
                        "ε={eps}, {pred}: kept {kept} of {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn works_on_queries_with_wide_join_tree_nodes() {
        // Figure 1's query has a node with two children, exercising the binary tree
        // handling and the two-child absorption.
        let r = Relation::from_rows("R", &[&[1, 1], &[2, 2]]).unwrap();
        let s = Relation::from_rows("S", &[&[1, 3], &[1, 4], &[1, 5], &[2, 3], &[2, 4]]).unwrap();
        let t = Relation::from_rows("T", &[&[1, 6], &[1, 7], &[2, 6]]).unwrap();
        let u = Relation::from_rows("U", &[&[6, 8], &[6, 9], &[7, 9]]).unwrap();
        let inst = Instance::new(
            figure1_query(),
            Database::from_relations([r, s, t, u]).unwrap(),
        )
        .unwrap();
        let ranking = Ranking::sum(inst.query().variables());
        let trimmer = LossySumTrimmer::new(0.25);
        for bound in [15.0, 20.0, 24.0, 30.0] {
            let pred = RankPredicate::less_than(Weight::num(bound));
            let exact = brute_force_count(&inst, &ranking, &pred);
            let kept = count_answers(&trimmer.trim(&inst, &ranking, &pred).unwrap()).unwrap();
            assert!(kept <= exact);
            assert!(kept as f64 >= 0.75 * exact as f64 - 1e-9, "bound {bound}");
        }
    }

    #[test]
    fn partial_sums_are_supported() {
        let inst = three_path_instance(10);
        let ranking = Ranking::sum(vars(&["x1", "x4"]));
        let trimmer = LossySumTrimmer::new(0.2);
        let pred = RankPredicate::less_than(Weight::num(25.0));
        let exact = brute_force_count(&inst, &ranking, &pred);
        let kept = count_answers(&trimmer.trim(&inst, &ranking, &pred).unwrap()).unwrap();
        assert!(kept <= exact && kept as f64 >= 0.8 * exact as f64 - 1e-9);
    }

    #[test]
    fn trimmed_query_stays_acyclic_and_retrimmable() {
        let inst = three_path_instance(8);
        let ranking = Ranking::sum(inst.query().variables());
        let trimmer = LossySumTrimmer::new(0.3);
        let first = trimmer
            .trim(
                &inst,
                &ranking,
                &RankPredicate::less_than(Weight::num(60.0)),
            )
            .unwrap();
        assert!(qjoin_query::acyclicity::is_acyclic(first.query()));
        let second = trimmer
            .trim(
                &first,
                &ranking,
                &RankPredicate::greater_than(Weight::num(10.0)),
            )
            .unwrap();
        assert!(qjoin_query::acyclicity::is_acyclic(second.query()));
        // Every surviving answer satisfies both inequalities.
        let original_vars = inst.query().variables();
        for asg in materialize(&second).unwrap().iter_assignments() {
            let w = ranking
                .weight_of(&asg.project(&original_vars))
                .as_num()
                .unwrap();
            assert!(w < 60.0 && w > 10.0);
        }
    }

    #[test]
    fn invalid_epsilon_and_rankings_are_rejected() {
        let inst = three_path_instance(3);
        let sum = Ranking::sum(inst.query().variables());
        let pred = RankPredicate::less_than(Weight::num(5.0));
        assert!(matches!(
            LossySumTrimmer::new(0.0)
                .trim(&inst, &sum, &pred)
                .unwrap_err(),
            CoreError::InvalidEpsilon(_)
        ));
        let max = Ranking::max(inst.query().variables());
        assert!(matches!(
            LossySumTrimmer::new(0.2)
                .trim(&inst, &max, &pred)
                .unwrap_err(),
            CoreError::UnsupportedRanking(_)
        ));
    }

    #[test]
    fn lossy_trimmer_reports_itself_as_lossy() {
        assert!(LossySumTrimmer::new(0.1).is_lossy());
        assert_eq!(LossySumTrimmer::new(0.1).name(), "sum-lossy");
    }
}
