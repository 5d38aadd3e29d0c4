//! A brute-force oracle for the quantile solvers that shares no code with them.
//!
//! It reads the database's tuples, the query's atoms and `variables()`, and the
//! ranking's definition (`kind`, `weighted_vars`, `var_weight`), and nothing else:
//! no join tree, no GYO, no weight fold or `combine`, no `Weight` order. So a bug in
//! any of those cannot hide by being on both sides of a comparison.
//!
//! * **Bag semantics.** A nested loop in atom order gives one answer per
//!   combination of tuples, so duplicate rows multiply.
//! * **Weights by definition (§2.2).** SUM folds `+0.0 + w₁ + w₂ + …` in
//!   `weighted_vars` order; MIN/MAX take the least/greatest weight under
//!   `f64::total_cmp`, starting from `+∞`/`-∞`; LEX component `i` is `0.0 + wᵢ`, or
//!   `0.0` when the query does not bind variable `i` (the one-hot sum).
//! * **One full sort** by weight (component-wise `total_cmp`), ties broken by the
//!   answer's values in `query.variables()` order.
//!
//! The solve contract is in [`Oracle::assert_exact`] and [`Oracle::assert_within`],
//! and each round's partition in [`Oracle::assert_rounds`]. The solves under test
//! are asked for through [`solve`]: the one production entry, a [`Plan`] prepared
//! over a fresh encoding of the instance; [`traced`] drives a route's entry point
//! with a threshold, to force rounds, and records them.

#![allow(dead_code)] // each test binary uses only part of this module

use quantile_joins::core::encoded::{
    approximate_sum_quantile_batch_encoded_traced, exact_quantile_batch_encoded_traced,
};
use quantile_joins::core::quantile::target_rank;
use quantile_joins::core::{
    Accuracy, NoopTracer, PhaseContext, PivotingOptions, Plan, SolvePhase, SolveTracer,
};
use quantile_joins::data::{Tuple, Value};
use quantile_joins::query::{Assignment, EncodedInstance, Instance, Variable};
use quantile_joins::ranking::{AggregateKind, Ranking, Weight};
use quantile_joins::{CoreError, QuantileResult};
use std::cmp::Ordering;
use std::sync::Mutex;
use std::time::Duration;

/// An answer's weight: one component for SUM/MIN/MAX, one per weighted variable of LEX.
type Components = Vec<f64>;

/// `(weight, values in query.variables() order)`.
type Answer = (Components, Vec<Value>);

/// An atom's tuples and, per column, the slot of its variable in an answer.
type Scan<'a> = (&'a [Tuple], Vec<usize>);

/// The answers of one instance under one ranking, in the ranking's order.
pub struct Oracle {
    variables: Vec<Variable>,
    ranking: Ranking,
    sorted: Vec<Answer>,
}

impl Oracle {
    /// Joins, weighs and sorts every answer of the instance.
    pub fn new(instance: &Instance, ranking: &Ranking) -> Oracle {
        let variables = instance.query().variables();
        let weighed = |values: Vec<Value>| (weigh(ranking, &variables, &values), values);
        let mut sorted: Vec<Answer> = join(instance).into_iter().map(weighed).collect();
        sorted.sort_by(order);
        Oracle {
            variables,
            ranking: ranking.clone(),
            sorted,
        }
    }

    /// `|Q(D)|`.
    pub fn total(&self) -> u128 {
        self.sorted.len() as u128
    }

    /// `(answers strictly below the weight, answers tied with it)`.
    pub fn rank_of(&self, weight: &Weight) -> (u128, u128) {
        let weight = components(weight);
        let up_to = |of: fn(Ordering) -> bool| {
            (self.sorted).partition_point(|(w, _)| of(cmp(w, &weight))) as u128
        };
        let below = up_to(Ordering::is_lt);
        (below, up_to(Ordering::is_le) - below)
    }

    /// How many ranks separate the target index from the returned weight's window.
    pub fn rank_error(&self, result: &QuantileResult) -> u128 {
        let (below, equal) = self.rank_of(&result.weight);
        let (t, last) = (result.target_index, (below + equal).max(1) - 1);
        below.saturating_sub(t).max(t.saturating_sub(last))
    }

    /// An exact φ-quantile: the sorted list's weight at `target_rank(φ, N)`, bit for
    /// bit, carried by an answer of the bag; with no pivot round, its very answer.
    /// After a pivot round any answer tied with it will do: the driver resolves a
    /// tie band to its pivot.
    pub fn assert_exact(&self, phi: f64, result: &QuantileResult, what: &str) {
        let (weight, values) = &self.sorted[self.assert_member(phi, result, what) as usize];
        let returned = bits(&components(&result.weight));
        assert_eq!(returned, bits(weight), "{what}: weight");
        if result.iterations == 0 {
            assert_eq!(&self.values_of(&result.answer), values, "{what}: answer");
        }
    }

    /// An approximate φ-quantile: an answer of the bag whose rank is within `ε·N`
    /// of the target.
    pub fn assert_within(&self, phi: f64, epsilon: f64, result: &QuantileResult, what: &str) {
        self.assert_member(phi, result, what);
        let (error, allowed) = (self.rank_error(result), epsilon * self.total() as f64);
        assert!(error as f64 <= allowed, "{what}: off by {error}");
    }

    /// The count and target index are the sorted list's, and the answer is one of
    /// the bag whose weight recomputes to the returned bits. Returns the target.
    fn assert_member(&self, phi: f64, result: &QuantileResult, what: &str) -> u128 {
        let target = target_rank(phi, self.total());
        assert_eq!(result.total_answers, self.total(), "{what}: |Q(D)|");
        assert_eq!(result.target_index, target, "{what}: target index");
        assert_eq!(result.answer.len(), self.variables.len(), "{what}: arity");
        let values = self.values_of(&result.answer);
        let answer = (weigh(&self.ranking, &self.variables, &values), values);
        let found = self.sorted.binary_search_by(|probe| order(probe, &answer));
        assert!(found.is_ok(), "{what}: {:?} is no answer", result.answer);
        assert_eq!(bits(&answer.0), bits(&components(&result.weight)), "{what}");
        target
    }

    /// Every trim round of a one-target solve partitions its candidates exactly:
    /// round 0's `n_lt + n_eq + n_gt` is `|Q(D)|`, and each round's candidates are a
    /// run of the sorted list that its counts split on weight-class boundaries,
    /// `n_eq` answers of one class between them. The next round's run is the side
    /// holding `target`.
    pub fn assert_rounds(&self, target: u128, rounds: &[Round], what: &str) {
        let (mut offset, mut candidates) = (0u128, self.total());
        for (i, round) in rounds.iter().enumerate() {
            let what = format!("{what}: round {i}");
            assert_eq!(round.candidates, candidates, "{what}: candidates");
            let sides = round.n_lt + round.n_eq + round.n_gt;
            assert_eq!(sides, candidates, "{what}: n_lt + n_eq + n_gt");
            let (lt_end, eq_end) = (offset + round.n_lt, offset + round.n_lt + round.n_eq);
            for at in [lt_end, eq_end] {
                assert!(
                    self.is_class_boundary(at),
                    "{what}: {at} splits a weight class"
                );
            }
            if round.n_eq > 0 {
                let (first, last) = (
                    &self.sorted[lt_end as usize],
                    &self.sorted[eq_end as usize - 1],
                );
                assert!(
                    cmp(&first.0, &last.0).is_eq(),
                    "{what}: the tie band holds two classes"
                );
            }
            if target < lt_end {
                candidates = round.n_lt;
            } else if target >= eq_end {
                (offset, candidates) = (eq_end, round.n_gt);
            } else {
                assert_eq!(i + 1, rounds.len(), "{what}: a round after the tie band");
            }
        }
    }

    /// Whether `at` answers of the sorted list end on a weight-class boundary.
    fn is_class_boundary(&self, at: u128) -> bool {
        let at = at as usize;
        at == 0
            || at >= self.sorted.len()
            || cmp(&self.sorted[at - 1].0, &self.sorted[at].0).is_ne()
    }

    fn values_of(&self, answer: &Assignment) -> Vec<Value> {
        let value = |v: &Variable| answer.get(v).cloned().expect("the answer binds var(Q)");
        self.variables.iter().map(value).collect()
    }
}

/// Every answer as its values in `query.variables()` order, one per combination of
/// tuples: a nested loop over the atoms in query order.
pub fn join(instance: &Instance) -> Vec<Vec<Value>> {
    let variables = instance.query().variables();
    let slot = |v: &Variable| variables.iter().position(|x| x == v).expect("var(Q)");
    let atoms: Vec<Scan> = (instance.query().atoms().iter())
        .map(|atom| {
            let relation = instance.database().relation(atom.relation());
            let tuples = relation.expect("every atom has a relation").tuples();
            (tuples, atom.variables().iter().map(slot).collect())
        })
        .collect();
    let mut out = Vec::new();
    extend(&atoms, &mut vec![None; variables.len()], &mut out);
    out
}

fn extend(atoms: &[Scan], bound: &mut [Option<Value>], out: &mut Vec<Vec<Value>>) {
    let Some(((tuples, slots), rest)) = atoms.split_first() else {
        out.push(bound.iter().map(|v| v.clone().expect("bound")).collect());
        return;
    };
    for tuple in tuples.iter() {
        let mut fresh = Vec::new();
        let consistent = slots.iter().enumerate().all(|(column, &slot)| {
            let value = &tuple.values()[column];
            match &bound[slot] {
                Some(earlier) => earlier == value,
                None => {
                    bound[slot] = Some(value.clone());
                    fresh.push(slot);
                    true
                }
            }
        });
        if consistent {
            extend(rest, bound, out);
        }
        fresh.into_iter().for_each(|slot| bound[slot] = None);
    }
}

/// An answer's weight from the ranking's definition (see the module docs).
fn weigh(ranking: &Ranking, variables: &[Variable], values: &[Value]) -> Components {
    let weight = |var: &Variable| {
        let at = variables.iter().position(|v| v == var)?;
        Some(ranking.var_weight(var, &values[at]))
    };
    let bound = ranking.weighted_vars().iter().filter_map(weight);
    let pick = |keep| move |acc: f64, w: f64| if w.total_cmp(&acc) == keep { w } else { acc };
    match ranking.kind() {
        AggregateKind::Sum => vec![bound.fold(0.0, |acc, w| acc + w)],
        AggregateKind::Min => vec![bound.fold(f64::INFINITY, pick(Ordering::Less))],
        AggregateKind::Max => vec![bound.fold(f64::NEG_INFINITY, pick(Ordering::Greater))],
        AggregateKind::Lex => (ranking.weighted_vars().iter())
            .map(|var| weight(var).map_or(0.0, |w| 0.0 + w))
            .collect(),
    }
}

fn components(weight: &Weight) -> Components {
    match weight {
        Weight::Num(x) => vec![*x],
        Weight::Vec(v) => v.clone(),
    }
}

fn cmp(a: &[f64], b: &[f64]) -> Ordering {
    let mut each = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
    each.find(|o| o.is_ne()).unwrap_or(a.len().cmp(&b.len()))
}

fn order(a: &Answer, b: &Answer) -> Ordering {
    cmp(&a.0, &b.0).then_with(|| a.1.cmp(&b.1))
}

fn bits(weight: &[f64]) -> Vec<u64> {
    weight.iter().map(|x| x.to_bits()).collect()
}

/// A plan over a fresh encoding of `instance`.
pub fn prepare(instance: &Instance, ranking: &Ranking) -> Result<Plan, CoreError> {
    Plan::prepare(EncodedInstance::from_instance(instance)?, ranking.clone())
}

/// The quantiles of `phis` at `accuracy`, from a freshly prepared plan.
pub fn solve(
    instance: &Instance,
    ranking: &Ranking,
    phis: &[f64],
    accuracy: Accuracy,
) -> Result<Vec<QuantileResult>, CoreError> {
    prepare(instance, ranking)?.solve(phis, accuracy, &NoopTracer)
}

/// One exact φ-quantile.
pub fn exact(
    instance: &Instance,
    ranking: &Ranking,
    phi: f64,
) -> Result<QuantileResult, CoreError> {
    Ok(solve(instance, ranking, &[phi], Accuracy::Exact)?.remove(0))
}

/// One trim round as the driver reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Round {
    pub candidates: u128,
    pub n_lt: u128,
    pub n_eq: u128,
    pub n_gt: u128,
}

/// A tracer that keeps every trim round, in the order they ran.
#[derive(Default)]
pub struct Rounds(Mutex<Vec<Round>>);

impl Rounds {
    pub fn take(&self) -> Vec<Round> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

impl SolveTracer for Rounds {
    fn phase_event(&self, phase: SolvePhase, _: Duration, ctx: &PhaseContext) {
        if phase == SolvePhase::TrimRound {
            let count = |field: Option<u64>| u128::from(field.expect("a trim round counts"));
            self.0.lock().unwrap().push(Round {
                candidates: count(ctx.candidates),
                n_lt: count(ctx.n_lt),
                n_eq: count(ctx.n_eq),
                n_gt: count(ctx.n_gt),
            });
        }
    }
}

/// One φ-quantile from the exact (or, for [`Accuracy::Approximate`], the ε) route's
/// entry point over a fresh encoding, pivoting until at most `threshold` candidates
/// remain (the database size when `None`), and the trim rounds it ran.
pub fn traced(
    instance: &Instance,
    ranking: &Ranking,
    phi: f64,
    accuracy: Accuracy,
    threshold: Option<u128>,
) -> Result<(QuantileResult, Vec<Round>), CoreError> {
    let encoded = EncodedInstance::from_instance(instance)?;
    let options = PivotingOptions {
        materialize_threshold: threshold,
        ..PivotingOptions::default()
    };
    let rounds = Rounds::default();
    let mut results = match accuracy {
        Accuracy::Approximate { epsilon } => approximate_sum_quantile_batch_encoded_traced(
            &encoded,
            ranking,
            &[phi],
            epsilon,
            &options,
            &rounds,
        )?,
        _ => exact_quantile_batch_encoded_traced(&encoded, ranking, &[phi], &options, &rounds)?,
    };
    Ok((results.remove(0), rounds.take()))
}
