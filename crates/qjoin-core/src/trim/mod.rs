//! Trimming subroutines (Section 5 and Definition 3.2).
//!
//! A *trimming* of a predicate `P` from a query `Q` rewrites `(Q, D)` into `(Q', D')`
//! such that the answers of `Q'(D')` are in bijection with the answers of `Q(D)` that
//! satisfy `P`, with the bijection simply dropping the freshly introduced variables.
//! The quantile driver uses trimmings to materialize the "less-than" and
//! "greater-than" partitions around a pivot weight without listing them.
//!
//! This module defines the [`Trimmer`] trait and the shared *partition-union*
//! construction (Algorithm 3's skeleton): express the predicate as a constant number
//! of disjoint conjunctions of unary predicates, build one filtered database copy per
//! conjunction, tag every copy with a partition-identifier column `x_p`, and union the
//! copies. Concrete trimmers for MIN/MAX, LEX, and SUM live in the submodules.

pub(crate) mod lex;
pub(crate) mod minmax;
pub(crate) mod sum;

pub use lex::LexTrimmer;
pub use minmax::MinMaxTrimmer;
pub use sum::{AdjacentSumTrimmer, SingleAtomSumTrimmer};

use crate::Result;
use qjoin_data::{Database, Relation, Value};
use qjoin_query::{self_join, Instance, Variable};
use qjoin_ranking::{CmpOp, RankPredicate, Ranking, WeightBound};

/// A trimming subroutine for one family of ranking predicates.
///
/// Implementations must preserve acyclicity and must return an instance whose answers
/// (projected onto the original query's variables) are answers of the original
/// instance satisfying the predicate. *Exact* trimmers retain all such answers;
/// *lossy* trimmers (Definition 3.5) may drop up to an `ε` fraction of them.
///
/// `Sync` because the solve driver rebuilds the two sides of a partition through
/// the same trimmer concurrently (`qjoin_par::par_join`); all implementations are
/// stateless.
pub trait Trimmer: Sync {
    /// Rewrites the instance so that its answers are (a 1-ε fraction of) the original
    /// answers satisfying `predicate`.
    fn trim(
        &self,
        instance: &Instance,
        ranking: &Ranking,
        predicate: &RankPredicate,
    ) -> Result<Instance>;

    /// Rewrites the instance so that its answers are (a 1-ε fraction of) the original
    /// answers whose weight lies strictly inside the open window `(low, high)` — one
    /// side of a partition step of Algorithm 1. The default stacks two
    /// [`trim`](Self::trim) calls: the `first` comparison (`≺ high` for [`CmpOp::Lt`],
    /// `≻ low` for [`CmpOp::Gt`]) on the instance, the other on its result —
    /// Algorithm 1 applies the pivot bound first. A trimmer whose construction serves
    /// both bounds at once overrides it and has no use for `first`.
    fn trim_between(
        &self,
        instance: &Instance,
        ranking: &Ranking,
        low: &WeightBound,
        high: &WeightBound,
        first: CmpOp,
    ) -> Result<Instance> {
        two_pass_trim(instance, low, high, first, |instance, predicate| {
            self.trim(instance, ranking, predicate)
        })
    }

    /// True if this trimmer may lose a bounded fraction of qualifying answers.
    fn is_lossy(&self) -> bool {
        false
    }

    /// A short human-readable name for logs and experiment reports.
    fn name(&self) -> &'static str;
}

/// The window trim `(low, high)` as two stacked single-bound trims — the one body
/// behind every backend without a fused construction, row or encoded, so their
/// recursions see the same intermediate instances. `first` names the comparison
/// applied to the original instance (`≺ high` for [`CmpOp::Lt`], `≻ low` for
/// [`CmpOp::Gt`]); the other one runs over its result. Algorithm 1 applies the pivot
/// bound first: `≺ pivot` on the less-than side, `≻ pivot` on the greater-than side.
pub(crate) fn two_pass_trim<I>(
    instance: &I,
    low: &WeightBound,
    high: &WeightBound,
    first: CmpOp,
    trim: impl Fn(&I, &RankPredicate) -> Result<I>,
) -> Result<I> {
    let below = RankPredicate::less_than(high.clone());
    let above = RankPredicate::greater_than(low.clone());
    let (first, second) = match first {
        CmpOp::Lt => (below, above),
        CmpOp::Gt => (above, below),
    };
    trim(&trim(instance, &first)?, &second)
}

/// Handles the two degenerate predicates every trimmer shares: trivially-true
/// predicates return the instance unchanged, unsatisfiable ones return an empty
/// instance. Returns `None` when the predicate is non-degenerate and the trimmer must
/// do real work.
pub(crate) fn handle_trivial(
    instance: &Instance,
    predicate: &RankPredicate,
) -> Option<Result<Instance>> {
    if predicate.is_trivial() {
        return Some(Ok(instance.clone()));
    }
    if predicate.is_unsatisfiable() {
        return Some(empty_copy(instance));
    }
    None
}

/// An instance with the same query whose answer set is empty (every relation cleared).
pub(crate) fn empty_copy(instance: &Instance) -> Result<Instance> {
    let mut db = Database::new();
    for rel in instance.database().relations() {
        db.add_relation(Relation::new(rel.name(), rel.arity()))?;
    }
    Ok(Instance::new(instance.query().clone(), db)?)
}

/// A unary predicate on the *weight* of a single variable, used as a building block of
/// the partition-union construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnaryWeightPred {
    /// `w_x(x) < λ`
    Lt(f64),
    /// `w_x(x) ≤ λ`
    Le(f64),
    /// `w_x(x) > λ`
    Gt(f64),
    /// `w_x(x) ≥ λ`
    Ge(f64),
    /// `w_x(x) = λ`
    Eq(f64),
}

impl UnaryWeightPred {
    /// Evaluates the predicate on a concrete weight.
    pub fn holds(&self, w: f64) -> bool {
        match *self {
            UnaryWeightPred::Lt(b) => w < b,
            UnaryWeightPred::Le(b) => w <= b,
            UnaryWeightPred::Gt(b) => w > b,
            UnaryWeightPred::Ge(b) => w >= b,
            UnaryWeightPred::Eq(b) => w == b,
        }
    }
}

/// One partition of the partition-union construction: a conjunction of unary weight
/// predicates over distinct variables.
pub type UnaryConjunction = Vec<(Variable, UnaryWeightPred)>;

/// The outcome of reducing a (non-degenerate) ranking predicate to unary-predicate
/// partitions. Shared by the row trimmers and the encoded trim layer, so both paths
/// partition answers identically by construction.
#[derive(Clone, Debug)]
pub(crate) enum TrimPlan {
    /// The predicate holds for every answer (degenerate, e.g. MAX over no weighted
    /// variables compared against a bound above the identity).
    KeepAll,
    /// The predicate holds for no answer.
    DropAll,
    /// The disjoint unary-conjunction partitions whose union is the predicate.
    Partitions(Vec<UnaryConjunction>),
}

/// The partition-union trimming construction shared by the MIN/MAX and LEX trimmers
/// (Algorithm 3 and Lemma 5.4).
///
/// `partitions` must describe **disjoint** conditions whose union is exactly the
/// predicate being trimmed. The construction:
///
/// 1. eliminates self-joins, so that filtering a relation affects exactly one atom;
/// 2. for each partition, copies the database and filters every relation by the unary
///    predicates applying to its atom's variables;
/// 3. if there is more than one partition, appends a fresh partition-identifier
///    variable `x_p` to every atom and a matching constant column to every relation
///    copy, then unions the copies.
///
/// With a single partition no new variable is needed and the query is returned
/// unchanged (pure filtering). Acyclicity is preserved in both cases: adding the same
/// variable to every hyperedge keeps every join tree valid.
pub(crate) fn partition_union_trim(
    instance: &Instance,
    ranking: &Ranking,
    partitions: &[UnaryConjunction],
) -> Result<Instance> {
    if partitions.is_empty() {
        return empty_copy(instance);
    }
    let instance = self_join::eliminate_self_joins(instance)?;
    let query = instance.query().clone();

    if partitions.len() == 1 {
        let db = filtered_database(&instance, ranking, &partitions[0])?;
        return Ok(Instance::new(query, db)?);
    }

    let query_vars = query.variable_set();
    let partition_var = Variable::fresh("x_p", query_vars.iter());
    let new_query = query.with_variable_everywhere(&partition_var);

    // Filter once per partition (untouched relations are shared, not copied), then
    // assemble each union relation in a single pre-sized pass: every tuple is built
    // exactly once, directly in its final storage, with its partition tag appended.
    let filtered: Vec<Database> = partitions
        .iter()
        .map(|conjunction| filtered_database(&instance, ranking, conjunction))
        .collect::<Result<_>>()?;
    let mut union_db = Database::new();
    for atom in query.atoms() {
        let base = instance.database().relation(atom.relation())?;
        let total: usize = filtered
            .iter()
            .map(|db| db.relation(base.name()).expect("same schema").len())
            .sum();
        let mut tuples = Vec::with_capacity(total);
        for (partition_idx, db) in filtered.iter().enumerate() {
            let tag = Value::from(partition_idx as i64);
            tuples.extend(
                db.relation(base.name())
                    .expect("same schema")
                    .iter()
                    .map(|t| t.extended(tag.clone())),
            );
        }
        let mut union_rel = Relation::new(base.name(), base.arity() + 1);
        union_rel.set_tuples(tuples)?;
        union_db.add_relation(union_rel)?;
    }
    Ok(Instance::new(new_query, union_db)?)
}

/// A derived database in which every relation is filtered by the unary predicates
/// that mention variables of its atom. A variable occurring in several atoms is
/// filtered in each of them, which is sound (the predicate is a property of the
/// answer's value for that variable) and keeps the copies small.
///
/// Relations whose atom mentions no predicate variable are **shared by handle** with
/// the input database (no tuple copy), so each §3 trimming round materializes only
/// the relations the predicate actually touches.
fn filtered_database(
    instance: &Instance,
    ranking: &Ranking,
    conjunction: &UnaryConjunction,
) -> Result<Database> {
    let query = instance.query();
    let mut db = Database::new();
    for (atom_idx, atom) in query.atoms().iter().enumerate() {
        let rel = instance.relation_of_atom(atom_idx);
        let relevant: Vec<(usize, UnaryWeightPred, &Variable)> = conjunction
            .iter()
            .filter(|(var, _)| atom.contains(var))
            .map(|(var, pred)| (atom.positions_of(var)[0], *pred, var))
            .collect();
        let filtered = if relevant.is_empty() {
            rel.clone()
        } else {
            rel.filtered(|t| {
                relevant
                    .iter()
                    .all(|(pos, pred, var)| pred.holds(ranking.var_weight(var, &t[*pos])))
            })
        };
        db.add_relation(filtered)?;
    }
    Ok(db)
}

/// Shared harness for the per-trimmer quantile-preservation tests: materializes
/// both the original and the trimmed instances and checks the bijection of
/// Definition 3.2 at the weight level, plus preservation of the φ-quantile.
#[cfg(test)]
pub(crate) mod test_support {
    use super::Trimmer;
    use crate::baseline::{quantile_by_materialization, BaselineStrategy};
    use qjoin_exec::yannakakis::materialize;
    use qjoin_query::Instance;
    use qjoin_ranking::{RankPredicate, Ranking, Weight};
    use qjoin_workload::random_acyclic::RandomAcyclicConfig;

    /// A small random acyclic instance; the standard input of these tests.
    pub(crate) fn small_random_instance(seed: u64, atoms: usize) -> Instance {
        RandomAcyclicConfig {
            atoms,
            max_arity: 3,
            tuples_per_relation: 10,
            domain: 4,
            seed,
        }
        .generate()
    }

    /// All answer weights of the instance under `ranking`, sorted ascending.
    pub(crate) fn sorted_weights(instance: &Instance, ranking: &Ranking) -> Vec<Weight> {
        let answers = materialize(instance).expect("materialization must succeed");
        let schema = answers.variables().to_vec();
        let mut weights: Vec<Weight> = answers
            .rows()
            .iter()
            .map(|row| ranking.weight_of_row(&schema, row))
            .collect();
        weights.sort();
        weights
    }

    /// Asserts that trimming `instance` at its φ-quantile weight λ is *exact*:
    ///
    /// * the `< λ` / `> λ` trimmed instances reproduce, weight for weight, the
    ///   corresponding slices of the materialized answer list (the bijection of
    ///   Definition 3.2, checked on the weight multiset), and
    /// * the φ-quantile answer itself is preserved — its target index lands in
    ///   the `= λ` block that the two trimmings leave out.
    ///
    /// Returns `false` (skipping the seed) when the instance has no answers.
    pub(crate) fn assert_exact_partition_at_phi(
        trimmer: &impl Trimmer,
        instance: &Instance,
        ranking: &Ranking,
        phi: f64,
    ) -> bool {
        let all = sorted_weights(instance, ranking);
        if all.is_empty() {
            return false;
        }
        let quantile =
            quantile_by_materialization(instance, ranking, phi, BaselineStrategy::FullSort)
                .expect("non-empty instance must have a quantile");
        let lambda = quantile.weight.clone();

        let lt = trimmer
            .trim(instance, ranking, &RankPredicate::less_than(lambda.clone()))
            .expect("less-than trimming must succeed");
        let gt = trimmer
            .trim(
                instance,
                ranking,
                &RankPredicate::greater_than(lambda.clone()),
            )
            .expect("greater-than trimming must succeed");

        let expected_lt: Vec<Weight> = all.iter().filter(|w| **w < lambda).cloned().collect();
        let expected_gt: Vec<Weight> = all.iter().filter(|w| **w > lambda).cloned().collect();
        assert_eq!(
            sorted_weights(&lt, ranking),
            expected_lt,
            "{}: `< λ` partition differs from materialized slice (λ = {lambda:?}, φ = {phi})",
            trimmer.name()
        );
        assert_eq!(
            sorted_weights(&gt, ranking),
            expected_gt,
            "{}: `> λ` partition differs from materialized slice (λ = {lambda:?}, φ = {phi})",
            trimmer.name()
        );

        // φ-quantile preservation: the target index must sit in the `= λ` block
        // bounded by the two partitions, so recursing into neither loses it.
        let below = expected_lt.len() as u128;
        let above = expected_gt.len() as u128;
        assert!(
            quantile.target_index >= below && quantile.target_index < all.len() as u128 - above,
            "{}: φ-quantile (index {}) escaped the untrimmed `= λ` block [{below}, {})",
            trimmer.name(),
            quantile.target_index,
            all.len() as u128 - above
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::{Database, Relation};
    use qjoin_query::query::path_query;
    use qjoin_query::variable::vars;
    use qjoin_ranking::Weight;

    fn two_path_instance() -> Instance {
        let r1 = Relation::from_rows("R1", &[&[1, 1], &[2, 1], &[8, 2]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 5], &[1, 9], &[2, 3]]).unwrap();
        Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap()
    }

    #[test]
    fn trivial_predicates_return_instance_unchanged() {
        let inst = two_path_instance();
        let pred = RankPredicate::greater_than(qjoin_ranking::WeightBound::NegInf);
        let out = handle_trivial(&inst, &pred).unwrap().unwrap();
        assert_eq!(
            out.database().total_tuples(),
            inst.database().total_tuples()
        );
    }

    #[test]
    fn unsatisfiable_predicates_return_empty_instance() {
        let inst = two_path_instance();
        let pred = RankPredicate::less_than(qjoin_ranking::WeightBound::NegInf);
        let out = handle_trivial(&inst, &pred).unwrap().unwrap();
        assert_eq!(out.database().total_tuples(), 0);
        assert_eq!(out.query(), inst.query());
    }

    #[test]
    fn non_degenerate_predicates_are_not_short_circuited() {
        let inst = two_path_instance();
        let pred = RankPredicate::less_than(Weight::num(3.0));
        assert!(handle_trivial(&inst, &pred).is_none());
    }

    #[test]
    fn single_partition_filters_in_place() {
        let inst = two_path_instance();
        let ranking = Ranking::sum(inst.query().variables());
        // Keep only x1 < 3.
        let partitions = vec![vec![(Variable::new("x1"), UnaryWeightPred::Lt(3.0))]];
        let out = partition_union_trim(&inst, &ranking, &partitions).unwrap();
        assert_eq!(out.query(), inst.query());
        assert_eq!(out.database().relation("R1").unwrap().len(), 2);
        assert_eq!(out.database().relation("R2").unwrap().len(), 3);
    }

    #[test]
    fn multi_partition_union_adds_partition_variable() {
        let inst = two_path_instance();
        let ranking = Ranking::sum(inst.query().variables());
        // x1 < 3 (partition 0) or x1 ≥ 3 (partition 1) — together everything.
        let partitions = vec![
            vec![(Variable::new("x1"), UnaryWeightPred::Lt(3.0))],
            vec![(Variable::new("x1"), UnaryWeightPred::Ge(3.0))],
        ];
        let out = partition_union_trim(&inst, &ranking, &partitions).unwrap();
        assert_eq!(out.query().atom(0).arity(), 3);
        assert!(out
            .query()
            .variables()
            .iter()
            .any(|v| v.name().starts_with("x_p")));
        // Answers are preserved: x1 appears only in R1, so the partitioning splits R1
        // into 2 + 1 tuples while R2 is copied into both partitions.
        let count = qjoin_exec::count::count_answers(&out).unwrap();
        let original = qjoin_exec::count::count_answers(&inst).unwrap();
        assert_eq!(count, original);
    }

    #[test]
    fn predicates_on_shared_variables_filter_all_atoms() {
        let inst = two_path_instance();
        let ranking = Ranking::sum(inst.query().variables());
        // x2 appears in both relations; keep x2 > 1.
        let partitions = vec![vec![(Variable::new("x2"), UnaryWeightPred::Gt(1.0))]];
        let out = partition_union_trim(&inst, &ranking, &partitions).unwrap();
        assert_eq!(out.database().relation("R1").unwrap().len(), 1);
        assert_eq!(out.database().relation("R2").unwrap().len(), 1);
        assert_eq!(qjoin_exec::count::count_answers(&out).unwrap(), 1);
    }

    #[test]
    fn empty_partition_list_gives_empty_instance() {
        let inst = two_path_instance();
        let ranking = Ranking::sum(vars(&["x1"]));
        let out = partition_union_trim(&inst, &ranking, &[]).unwrap();
        assert_eq!(qjoin_exec::count::count_answers(&out).unwrap(), 0);
    }

    #[test]
    fn unary_weight_predicates_evaluate_correctly() {
        assert!(UnaryWeightPred::Lt(3.0).holds(2.9));
        assert!(!UnaryWeightPred::Lt(3.0).holds(3.0));
        assert!(UnaryWeightPred::Le(3.0).holds(3.0));
        assert!(UnaryWeightPred::Gt(3.0).holds(3.1));
        assert!(!UnaryWeightPred::Ge(3.0).holds(2.9));
        assert!(UnaryWeightPred::Eq(3.0).holds(3.0));
        assert!(!UnaryWeightPred::Eq(3.0).holds(3.1));
    }
}
