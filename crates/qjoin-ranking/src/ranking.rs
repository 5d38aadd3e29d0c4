//! Aggregate ranking functions over query answers.

use crate::{Weight, WeightFn};
use qjoin_data::Value;
use qjoin_query::{Assignment, Variable};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// The aggregate used to combine per-variable weights into an answer weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    /// Summation (full SUM when `U_w = var(Q)`, partial SUM otherwise).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Lexicographic order over the weighted variables, in their given order.
    Lex,
}

/// An aggregate ranking function `(w, ⪯)` over query answers (Section 2.2).
///
/// The weight of an answer `q` is `agg_w({w_x(q[x]) | x ∈ U_w})`, where `U_w` is the
/// set of *weighted variables* and `w_x` the per-variable input-weight functions.
/// Partial answers (assignments binding only some of `U_w`) also receive weights by
/// aggregating over the bound variables only; subset-monotonicity makes comparisons of
/// such partial weights meaningful, which is exactly what the pivot-selection algorithm
/// exploits.
#[derive(Clone, Debug)]
pub struct Ranking {
    kind: AggregateKind,
    weighted_vars: Vec<Variable>,
    weight_fns: HashMap<Variable, WeightFn>,
}

impl Ranking {
    /// Creates a ranking function with identity weight functions for all variables.
    pub fn new(kind: AggregateKind, weighted_vars: Vec<Variable>) -> Self {
        Ranking {
            kind,
            weighted_vars,
            weight_fns: HashMap::new(),
        }
    }

    /// SUM over the given variables with identity weights.
    pub fn sum(weighted_vars: Vec<Variable>) -> Self {
        Ranking::new(AggregateKind::Sum, weighted_vars)
    }

    /// MIN over the given variables with identity weights.
    pub fn min(weighted_vars: Vec<Variable>) -> Self {
        Ranking::new(AggregateKind::Min, weighted_vars)
    }

    /// MAX over the given variables with identity weights.
    pub fn max(weighted_vars: Vec<Variable>) -> Self {
        Ranking::new(AggregateKind::Max, weighted_vars)
    }

    /// Lexicographic order over the given variables (most-significant first) with
    /// identity weights.
    pub fn lex(weighted_vars: Vec<Variable>) -> Self {
        Ranking::new(AggregateKind::Lex, weighted_vars)
    }

    /// Overrides the weight function of one variable.
    pub fn with_weight_fn(mut self, var: Variable, f: WeightFn) -> Self {
        self.weight_fns.insert(var, f);
        self
    }

    /// The aggregate kind.
    pub fn kind(&self) -> AggregateKind {
        self.kind
    }

    /// The weighted variables `U_w` (order is significant for LEX).
    pub fn weighted_vars(&self) -> &[Variable] {
        &self.weighted_vars
    }

    /// The weight function of a variable ([`WeightFn::Identity`] unless overridden).
    pub fn weight_fn(&self, var: &Variable) -> &WeightFn {
        static IDENTITY: WeightFn = WeightFn::Identity;
        self.weight_fns.get(var).unwrap_or(&IDENTITY)
    }

    /// The input weight `w_x(value)` of one variable, with a weight function's `-0.0`
    /// read as `+0.0`: §2.2's weights are reals, where the two zeros are one number,
    /// but the ranking order (`f64::total_cmp`) would rank them apart. Every weight
    /// a ranking computes starts here, so no aggregate of them is `-0.0` either.
    pub fn var_weight(&self, var: &Variable, value: &Value) -> f64 {
        self.weight_fn(var).apply(value) + 0.0
    }

    /// True if the variable participates in the ranking.
    pub fn is_weighted(&self, var: &Variable) -> bool {
        self.weighted_vars.contains(var)
    }

    /// The neutral weight of the aggregate: the weight of an answer binding none of
    /// the weighted variables.
    pub fn identity(&self) -> Weight {
        match self.kind {
            AggregateKind::Sum => Weight::Num(0.0),
            AggregateKind::Min => Weight::Num(f64::INFINITY),
            AggregateKind::Max => Weight::Num(f64::NEG_INFINITY),
            AggregateKind::Lex => Weight::Vec(vec![0.0; self.weighted_vars.len()]),
        }
    }

    /// Combines two (partial) weights with the aggregate. This is the subset-monotone
    /// combination used when gluing partial answers from different join-tree branches.
    pub fn combine(&self, a: &Weight, b: &Weight) -> Weight {
        match self.kind {
            AggregateKind::Sum => {
                Weight::Num(a.as_num().unwrap_or(0.0) + b.as_num().unwrap_or(0.0))
            }
            AggregateKind::Min => Weight::Num(
                a.as_num()
                    .unwrap_or(f64::INFINITY)
                    .min(b.as_num().unwrap_or(f64::INFINITY)),
            ),
            AggregateKind::Max => Weight::Num(
                a.as_num()
                    .unwrap_or(f64::NEG_INFINITY)
                    .max(b.as_num().unwrap_or(f64::NEG_INFINITY)),
            ),
            AggregateKind::Lex => {
                let zero = vec![0.0; self.weighted_vars.len()];
                let av = a.as_vec().unwrap_or(&zero);
                let bv = b.as_vec().unwrap_or(&zero);
                Weight::Vec(
                    (0..self.weighted_vars.len())
                        .map(|i| {
                            av.get(i).copied().unwrap_or(0.0) + bv.get(i).copied().unwrap_or(0.0)
                        })
                        .collect(),
                )
            }
        }
    }

    /// The contribution of binding one weighted variable to one value. For LEX this is
    /// the "one-hot" vector of Section 2.2; for the scalar aggregates it is the scalar
    /// weight.
    pub fn contribution(&self, var: &Variable, value: &Value) -> Weight {
        let w = self.var_weight(var, value);
        match self.kind {
            AggregateKind::Sum | AggregateKind::Min | AggregateKind::Max => Weight::Num(w),
            AggregateKind::Lex => {
                let mut vec = vec![0.0; self.weighted_vars.len()];
                if let Some(pos) = self.weighted_vars.iter().position(|v| v == var) {
                    vec[pos] = w;
                }
                Weight::Vec(vec)
            }
        }
    }

    /// The weight of a (possibly partial) assignment: the aggregate over the weighted
    /// variables bound by it.
    pub fn weight_of(&self, assignment: &Assignment) -> Weight {
        let mut acc = self.identity();
        for var in &self.weighted_vars {
            if let Some(value) = assignment.get(var) {
                let contribution = self.contribution(var, value);
                acc = self.combine(&acc, &contribution);
            }
        }
        acc
    }

    /// The weight of a positional row laid out according to `schema`.
    pub fn weight_of_row(&self, schema: &[Variable], row: &[Value]) -> Weight {
        let mut acc = self.identity();
        for var in &self.weighted_vars {
            if let Some(pos) = schema.iter().position(|v| v == var) {
                let contribution = self.contribution(var, &row[pos]);
                acc = self.combine(&acc, &contribution);
            }
        }
        acc
    }

    /// Compares two weights under the ranking's total order `⪯`.
    pub fn compare(&self, a: &Weight, b: &Weight) -> Ordering {
        a.cmp(b)
    }

    /// All ranking functions in this crate are subset-monotone: if
    /// `agg(L1) ⪯ agg(L2)` then `agg(L ⊎ L1) ⪯ agg(L ⊎ L2)` for every multiset `L`.
    pub fn is_subset_monotone(&self) -> bool {
        true
    }
}

impl fmt::Display for Ranking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.kind {
            AggregateKind::Sum => "SUM",
            AggregateKind::Min => "MIN",
            AggregateKind::Max => "MAX",
            AggregateKind::Lex => "LEX",
        };
        write!(f, "{name}(")?;
        for (i, v) in self.weighted_vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_query::variable::vars;

    fn asg(pairs: &[(&str, i64)]) -> Assignment {
        Assignment::from_pairs(
            pairs
                .iter()
                .map(|(name, v)| (Variable::new(name), Value::from(*v))),
        )
    }

    #[test]
    fn sum_weights_add_up() {
        let r = Ranking::sum(vars(&["x", "y"]));
        assert_eq!(r.weight_of(&asg(&[("x", 3), ("y", 4)])), Weight::num(7.0));
        // Partial assignment: only x bound.
        assert_eq!(r.weight_of(&asg(&[("x", 3)])), Weight::num(3.0));
        // Unweighted variables are ignored.
        assert_eq!(r.weight_of(&asg(&[("x", 3), ("z", 100)])), Weight::num(3.0));
    }

    #[test]
    fn min_and_max_weights() {
        let mn = Ranking::min(vars(&["a", "b", "c"]));
        let mx = Ranking::max(vars(&["a", "b", "c"]));
        let a = asg(&[("a", 5), ("b", 2), ("c", 9)]);
        assert_eq!(mn.weight_of(&a), Weight::num(2.0));
        assert_eq!(mx.weight_of(&a), Weight::num(9.0));
        assert_eq!(
            mn.weight_of(&Assignment::empty()),
            Weight::num(f64::INFINITY)
        );
        assert_eq!(
            mx.weight_of(&Assignment::empty()),
            Weight::num(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn lex_weights_are_positional() {
        let r = Ranking::lex(vars(&["x", "y"]));
        let w1 = r.weight_of(&asg(&[("x", 1), ("y", 100)]));
        let w2 = r.weight_of(&asg(&[("x", 2), ("y", 0)]));
        assert!(w1 < w2, "x dominates y in the lexicographic order");
        assert_eq!(w1, Weight::Vec(vec![1.0, 100.0]));
        // A partial answer binding only y leaves x's position at 0.
        assert_eq!(r.weight_of(&asg(&[("y", 7)])), Weight::Vec(vec![0.0, 7.0]));
    }

    #[test]
    fn custom_weight_functions_apply() {
        let r = Ranking::sum(vars(&["x", "y"]))
            .with_weight_fn(Variable::new("y"), WeightFn::Constant(10.0));
        assert_eq!(
            r.weight_of(&asg(&[("x", 1), ("y", 999)])),
            Weight::num(11.0)
        );
    }

    #[test]
    fn weight_of_row_matches_weight_of_assignment() {
        let r = Ranking::sum(vars(&["x", "z"]));
        let schema = vars(&["x", "y", "z"]);
        let row = vec![Value::from(1), Value::from(2), Value::from(3)];
        assert_eq!(
            r.weight_of_row(&schema, &row),
            r.weight_of(&asg(&[("x", 1), ("y", 2), ("z", 3)]))
        );
    }

    #[test]
    fn subset_monotonicity_spot_checks() {
        // For each aggregate: if w(L1) <= w(L2) then w(L ∪ L1) <= w(L ∪ L2).
        for kind in [
            AggregateKind::Sum,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Lex,
        ] {
            let r = Ranking::new(kind, vars(&["a", "b", "c"]));
            let l1 = r.weight_of(&asg(&[("b", 2)]));
            let l2 = r.weight_of(&asg(&[("b", 5)]));
            assert!(l1 <= l2);
            let with_l1 = r.combine(&r.weight_of(&asg(&[("a", 3)])), &l1);
            let with_l2 = r.combine(&r.weight_of(&asg(&[("a", 3)])), &l2);
            assert!(
                with_l1 <= with_l2,
                "subset monotonicity violated for {kind:?}"
            );
            assert!(r.is_subset_monotone());
        }
    }

    #[test]
    fn combine_is_associative_for_sum_and_min_max() {
        let vals = [Weight::num(1.0), Weight::num(5.0), Weight::num(-2.0)];
        for kind in [AggregateKind::Sum, AggregateKind::Min, AggregateKind::Max] {
            let r = Ranking::new(kind, vars(&["a"]));
            let left = r.combine(&r.combine(&vals[0], &vals[1]), &vals[2]);
            let right = r.combine(&vals[0], &r.combine(&vals[1], &vals[2]));
            assert_eq!(left, right);
        }
    }

    #[test]
    fn display_names_the_aggregate() {
        assert_eq!(Ranking::sum(vars(&["l2", "l3"])).to_string(), "SUM(l2, l3)");
        assert_eq!(Ranking::max(vars(&["w", "h"])).to_string(), "MAX(w, h)");
    }

    #[test]
    fn identity_is_neutral_for_combine() {
        for kind in [
            AggregateKind::Sum,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Lex,
        ] {
            let r = Ranking::new(kind, vars(&["a", "b"]));
            let w = r.weight_of(&asg(&[("a", 4), ("b", -1)]));
            assert_eq!(r.combine(&r.identity(), &w), w);
            assert_eq!(r.combine(&w, &r.identity()), w);
        }
    }
}
