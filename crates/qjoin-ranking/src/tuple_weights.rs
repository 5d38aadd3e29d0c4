//! Attribute-weight → tuple-weight conversion for SUM (Section 2.2, "Tuple weights").
//!
//! Several constructions (the adjacent-pair SUM route's cover of Lemma 5.5 and the
//! lossy trimming of Algorithm 4) reason about the *partial sum carried by one tuple*. To
//! avoid counting a variable's weight more than once when it occurs in several atoms,
//! the paper fixes a mapping `μ` assigning every weighted variable to exactly one atom
//! that contains it; the weight of a tuple of relation `R` is then the sum of the
//! weights of the variables assigned to `R`.

use crate::Ranking;
use qjoin_data::Tuple;
use qjoin_query::{JoinQuery, Variable};

/// The per-atom partial-sum evaluator induced by a mapping `μ` from weighted variables
/// to atoms.
///
/// This type is specific to SUM-like (numeric, additive) rankings; MIN/MAX and LEX
/// weigh one variable at a time and do not need tuple weights.
#[derive(Clone, Debug)]
pub struct SumTupleWeights {
    /// For every atom index: the weighted variables assigned to it by `μ`, with the
    /// position at which each occurs in that atom.
    per_atom: Vec<Vec<(Variable, usize)>>,
}

impl SumTupleWeights {
    /// Builds the default mapping `μ`: every weighted variable is assigned to the
    /// first atom (by index) containing it. The query must contain every weighted
    /// variable; variables it does not contain are ignored.
    pub fn new(query: &JoinQuery, ranking: &Ranking) -> Self {
        Self::with_preferred_atoms(query, ranking, &[])
    }

    /// Builds a mapping `μ` that prefers the given atoms: a weighted variable occurring
    /// in one of `preferred` (in order) is assigned there; otherwise it falls back to
    /// its first containing atom. The adjacent-pair SUM route uses this to force all
    /// weighted variables onto the two adjacent join-tree nodes it operates on.
    pub fn with_preferred_atoms(query: &JoinQuery, ranking: &Ranking, preferred: &[usize]) -> Self {
        let mut per_atom: Vec<Vec<(Variable, usize)>> = vec![Vec::new(); query.num_atoms()];
        for var in ranking.weighted_vars() {
            let preferred_home = preferred
                .iter()
                .copied()
                .find(|&a| query.atom(a).contains(var));
            let home = preferred_home.or_else(|| query.atoms_containing(var).first().copied());
            if let Some(atom_idx) = home {
                let pos = query.atom(atom_idx).positions_of(var)[0];
                per_atom[atom_idx].push((var.clone(), pos));
            }
        }
        SumTupleWeights { per_atom }
    }

    /// The weighted variables assigned to the given atom.
    pub fn vars_of_atom(&self, atom_idx: usize) -> impl Iterator<Item = &Variable> {
        self.per_atom[atom_idx].iter().map(|(v, _)| v)
    }

    /// True if no weighted variable is assigned to the given atom (its tuples all have
    /// partial sum 0).
    pub fn atom_is_unweighted(&self, atom_idx: usize) -> bool {
        self.per_atom[atom_idx].is_empty()
    }

    /// The partial sum `w_R(t)` carried by a tuple of the given atom.
    pub fn tuple_sum(&self, ranking: &Ranking, atom_idx: usize, tuple: &Tuple) -> f64 {
        self.per_atom[atom_idx]
            .iter()
            .map(|(var, pos)| ranking.var_weight(var, &tuple[*pos]))
            .sum()
    }

    /// The atoms that received at least one weighted variable.
    pub fn weighted_atoms(&self) -> Vec<usize> {
        self.per_atom
            .iter()
            .enumerate()
            .filter(|(_, vars)| !vars.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::Value;
    use qjoin_query::query::{path_query, social_network_query};
    use qjoin_query::variable::vars;

    #[test]
    fn each_weighted_variable_is_assigned_exactly_once() {
        // In the 3-path, x2 occurs in R1 and R2; with full SUM it must contribute once.
        let q = path_query(3);
        let r = Ranking::sum(q.variables());
        let tw = SumTupleWeights::new(&q, &r);
        let total_assigned: usize = (0..q.num_atoms()).map(|a| tw.vars_of_atom(a).count()).sum();
        assert_eq!(total_assigned, q.variables().len());
        // Summing tuple sums over one answer equals the answer's SUM weight.
        let t1 = Tuple::from(vec![1i64, 2]);
        let t2 = Tuple::from(vec![2i64, 3]);
        let t3 = Tuple::from(vec![3i64, 4]);
        let total = tw.tuple_sum(&r, 0, &t1) + tw.tuple_sum(&r, 1, &t2) + tw.tuple_sum(&r, 2, &t3);
        assert_eq!(total, 1.0 + 2.0 + 3.0 + 4.0);
    }

    #[test]
    fn partial_sum_ignores_unweighted_variables() {
        let q = social_network_query();
        let r = Ranking::sum(vars(&["l2", "l3"]));
        let tw = SumTupleWeights::new(&q, &r);
        // Admin(u1, e) carries no weighted variable.
        assert!(tw.atom_is_unweighted(0));
        assert_eq!(tw.weighted_atoms(), vec![1, 2]);
        let share_tuple = Tuple::from(vec![7i64, 100, 42]);
        assert_eq!(tw.tuple_sum(&r, 1, &share_tuple), 42.0);
    }

    #[test]
    fn preferred_atoms_override_first_occurrence() {
        // x2 occurs in atoms 0 and 1 of the 2-path; prefer atom 1.
        let q = path_query(2);
        let r = Ranking::sum(vars(&["x2"]));
        let tw = SumTupleWeights::with_preferred_atoms(&q, &r, &[1]);
        assert!(tw.atom_is_unweighted(0));
        assert_eq!(tw.weighted_atoms(), vec![1]);
        assert_eq!(
            tw.tuple_sum(&r, 1, &Tuple::from(vec![5i64, 9])),
            5.0,
            "x2 is the first column of R2"
        );
    }

    #[test]
    fn custom_weight_functions_flow_through() {
        let q = path_query(2);
        let r = Ranking::sum(vars(&["x1", "x3"])).with_weight_fn(
            qjoin_query::Variable::new("x3"),
            crate::WeightFn::Affine {
                scale: 10.0,
                offset: 0.0,
            },
        );
        let tw = SumTupleWeights::new(&q, &r);
        assert_eq!(tw.tuple_sum(&r, 0, &Tuple::from(vec![2i64, 7])), 2.0);
        assert_eq!(tw.tuple_sum(&r, 1, &Tuple::from(vec![7i64, 3])), 30.0);
    }

    #[test]
    fn variables_missing_from_query_are_ignored() {
        let q = path_query(2);
        let r = Ranking::sum(vars(&["x1", "zz"]));
        let tw = SumTupleWeights::new(&q, &r);
        let total_assigned: usize = (0..q.num_atoms()).map(|a| tw.vars_of_atom(a).count()).sum();
        assert_eq!(total_assigned, 1);
    }

    #[test]
    fn non_numeric_values_contribute_zero_under_identity() {
        let q = path_query(2);
        let r = Ranking::sum(vars(&["x1", "x2"]));
        let tw = SumTupleWeights::new(&q, &r);
        let t = Tuple::new(vec![Value::from("a"), Value::from(4)]);
        assert_eq!(tw.tuple_sum(&r, 0, &t), 4.0);
    }
}
