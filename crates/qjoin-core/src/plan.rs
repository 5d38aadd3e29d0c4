//! One way to ask for a quantile: [`Plan::prepare`] once per `(instance, ranking)`
//! pair computes the join tree, `|Q(D)|` and the §5 dichotomy class (Theorem 5.6);
//! [`Plan::solve`] then checks each request and routes it to the exact §3
//! recursion, the ε-lossy one (Algorithm 4, Theorem 6.2) or the sampler (§3.1).

use crate::dichotomy::{classify_partial_sum, SumClassification};
use crate::encoded::{
    approximate_sum_quantile_batch_encoded_traced, exact_quantile_batch_encoded_traced,
};
use crate::pivot::pivot_quality;
use crate::quantile::{PivotingOptions, QuantileResult};
use crate::sampling::{sampled_quantiles, SamplingOptions};
use crate::trace::SolveTracer;
use crate::{CoreError, Result};
use qjoin_query::{acyclicity, EncodedInstance, JoinTree};
use qjoin_ranking::{AggregateKind, Ranking};

/// How a quantile request wants its answer: exact, or within a rank-error budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Accuracy {
    /// An exact φ-quantile (only served by exact plan strategies).
    Exact,
    /// A deterministic `(φ ± ε)`-approximation via ε-lossy SUM trimming (Theorem 6.2).
    Approximate {
        /// The per-trim loss budget ε ∈ (0, 1) (the practical "direct" budget).
        epsilon: f64,
    },
    /// A randomized `(φ ± ε)`-approximation with failure probability δ, served by
    /// uniform sampling over a direct-access structure (§3.1, Hoeffding bound).
    /// Works for **any** ranking kind; the seed makes answers reproducible. Refused
    /// ([`CoreError::ApproxRefused`]) when the sample budget meets or exceeds the
    /// answer count — the regime where sampling cannot beat an exact solve.
    Bounded {
        /// The rank-error tolerance ε ∈ (0, 1).
        epsilon: f64,
        /// The failure probability δ ∈ (0, 1).
        delta: f64,
        /// RNG seed; equal seeds give pointwise-identical answers at any thread count.
        seed: u64,
    },
}

/// The trimming strategy the §5 dichotomy selects for a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanStrategy {
    /// MIN/MAX ranking (Theorem 5.3): exact, by searching the candidate weights
    /// with masked counts over the plan instance's one context — no trim.
    MinMax,
    /// LEX ranking (§5.2): the same search, one weight component at a time.
    Lex,
    /// SUM with all weighted variables in one atom: the same search over its row sums.
    SumSingleAtom {
        /// Index of the covering atom.
        atom: usize,
    },
    /// SUM covered by two adjacent join-tree nodes: exact, by counting weight
    /// windows over one context per generation (Lemma 5.5's cover, no trim).
    SumAdjacentPair {
        /// Indices of the two covering atoms.
        atoms: (usize, usize),
    },
    /// SUM on the intractable side of Theorem 5.6: only the ε-approximate path is
    /// available. The payload is the dichotomy's witness.
    SumApproximateOnly {
        /// Why exact solving is intractable (independent set / chordless path / ...).
        witness: String,
    },
}

impl PlanStrategy {
    /// True when the plan can serve exact quantile requests.
    pub fn supports_exact(&self) -> bool {
        !matches!(self, PlanStrategy::SumApproximateOnly { .. })
    }

    /// A short label for the CLI and stats output.
    pub fn label(&self) -> &'static str {
        match self {
            PlanStrategy::MinMax => "minmax",
            PlanStrategy::Lex => "lex",
            PlanStrategy::SumSingleAtom { .. } => "sum-single-atom",
            PlanStrategy::SumAdjacentPair { .. } => "sum-adjacent-pair",
            PlanStrategy::SumApproximateOnly { .. } => "sum-approximate-only",
        }
    }
}

/// An `(instance, ranking)` pair prepared once, ready to serve any number of
/// quantile requests (see the module docs).
#[derive(Debug)]
pub struct Plan {
    instance: EncodedInstance,
    ranking: Ranking,
    join_tree: JoinTree,
    total_answers: u128,
    strategy: PlanStrategy,
}

impl Plan {
    /// Derives the join tree (a cyclic query is refused), bounds the answer count
    /// (past `u128`: [`CoreError::TooLarge`]), counts the answers — memoising the
    /// instance's execution context for the solves — and classifies the ranking.
    pub fn prepare(instance: EncodedInstance, ranking: Ranking) -> Result<Plan> {
        let query = instance.query();
        let join_tree = acyclicity::gyo_join_tree(query)
            .ok_or_else(|| CoreError::CyclicQuery(query.to_string()))?;
        // If the product of relation sizes fits in `u128`, no intermediate product
        // or group sum of either counting pass can overflow (they `expect` it).
        if instance.answer_count_upper_bound().is_none() {
            return Err(CoreError::TooLarge(
                "the product of the atoms' relation sizes exceeds 2^128".to_string(),
            ));
        }
        let total_answers = qjoin_exec::encoded::count_answers(&instance)?;
        let strategy = match ranking.kind() {
            AggregateKind::Min | AggregateKind::Max => PlanStrategy::MinMax,
            AggregateKind::Lex => PlanStrategy::Lex,
            AggregateKind::Sum => match classify_partial_sum(query, ranking.weighted_vars()) {
                SumClassification::TractableSingleAtom { atom } => {
                    PlanStrategy::SumSingleAtom { atom }
                }
                SumClassification::TractableAdjacentPair { atoms } => {
                    PlanStrategy::SumAdjacentPair { atoms }
                }
                intractable => PlanStrategy::SumApproximateOnly {
                    witness: format!("{intractable:?}"),
                },
            },
        };
        Ok(Plan {
            instance,
            ranking,
            join_tree,
            total_answers,
            strategy,
        })
    }

    /// The φ-quantiles of every fraction in `phis`, in input order, at the requested
    /// accuracy, reporting the solve's phases to `tracer` (the sampler's is one
    /// [`SolvePhase::Materialize`](crate::trace::SolvePhase::Materialize) event).
    ///
    /// Refusals, before any work: an exact request on an intractable SUM
    /// ([`CoreError::IntractableSum`]), an ε request on a non-SUM ranking
    /// ([`CoreError::UnsupportedRanking`]), ε or δ outside `(0, 1)`
    /// ([`CoreError::InvalidEpsilon`], [`CoreError::InvalidDelta`]) and φ outside
    /// `[0, 1]` ([`CoreError::InvalidPhi`]).
    pub fn solve(
        &self,
        phis: &[f64],
        accuracy: Accuracy,
        tracer: &dyn SolveTracer,
    ) -> Result<Vec<QuantileResult>> {
        let in_unit_interval = |x: f64| x > 0.0 && x < 1.0;
        match (accuracy, &self.strategy) {
            (Accuracy::Exact, PlanStrategy::SumApproximateOnly { witness }) => {
                return Err(CoreError::IntractableSum(witness.clone()))
            }
            (Accuracy::Approximate { .. }, _) if self.ranking.kind() != AggregateKind::Sum => {
                return Err(CoreError::UnsupportedRanking(format!(
                    "ε-approximation targets SUM rankings; this plan ranks by {:?} \
                     (exact solving is already quasilinear)",
                    self.ranking.kind()
                )))
            }
            (Accuracy::Approximate { epsilon } | Accuracy::Bounded { epsilon, .. }, _)
                if !in_unit_interval(epsilon) =>
            {
                return Err(CoreError::InvalidEpsilon(epsilon))
            }
            (Accuracy::Bounded { delta, .. }, _) if !in_unit_interval(delta) => {
                return Err(CoreError::InvalidDelta(delta))
            }
            _ => {}
        }
        if let Some(&phi) = phis.iter().find(|phi| !(0.0..=1.0).contains(*phi)) {
            return Err(CoreError::InvalidPhi(phi));
        }
        let (instance, ranking) = (&self.instance, &self.ranking);
        let options = PivotingOptions::default();
        match accuracy {
            Accuracy::Exact => {
                exact_quantile_batch_encoded_traced(instance, ranking, phis, &options, tracer)
            }
            Accuracy::Approximate { epsilon } => approximate_sum_quantile_batch_encoded_traced(
                instance, ranking, phis, epsilon, &options, tracer,
            ),
            Accuracy::Bounded {
                epsilon,
                delta,
                seed,
            } => {
                let options = SamplingOptions {
                    epsilon,
                    delta,
                    seed,
                };
                sampled_quantiles(instance, ranking, phis, &options, tracer)
            }
        }
    }

    /// The per-trim ε′ that keeps a whole [`Accuracy::Approximate`] solve within
    /// `epsilon` (Lemma 3.6): `epsilon` over twice the trim bound `⌈ℓ·log_{1/(1-c)} n⌉`.
    /// Very conservative; spending `epsilon` on every trim is the practical default.
    pub fn guaranteed_per_trim_epsilon(&self, epsilon: f64) -> Result<f64> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoreError::InvalidEpsilon(epsilon));
        }
        let n = self.instance.total_rows().max(2) as f64;
        let ell = self.instance.query().num_atoms() as f64;
        let c = pivot_quality(&self.join_tree).clamp(1e-6, 0.5);
        let iterations = (ell * n.ln() / (1.0 / (1.0 - c)).ln()).ceil().max(1.0);
        Ok((epsilon / (2.0 * iterations)).max(1e-6))
    }

    /// The encoded instance every solve runs on.
    pub fn instance(&self) -> &EncodedInstance {
        &self.instance
    }

    /// The ranking function.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// The GYO join tree.
    pub fn join_tree(&self) -> &JoinTree {
        &self.join_tree
    }

    /// `|Q(D)|`, from the counting pass of [`Plan::prepare`].
    pub fn total_answers(&self) -> u128 {
        self.total_answers
    }

    /// The dichotomy class.
    pub fn strategy(&self) -> &PlanStrategy {
        &self.strategy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::rank_of_weight;
    use crate::trace::NoopTracer;
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::{path_query, triangle_query};
    use qjoin_query::variable::vars;
    use qjoin_query::Instance;
    use std::mem::discriminant;

    fn three_path_instance(n: i64) -> Instance {
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        let mut r3 = Relation::new("R3", 2);
        for i in 0..n {
            r1.push(vec![Value::from((7 * i) % 43), Value::from(i % 3)])
                .unwrap();
            r2.push(vec![Value::from(i % 3), Value::from((5 * i) % 37)])
                .unwrap();
            r3.push(vec![Value::from((5 * i) % 37), Value::from((3 * i) % 31)])
                .unwrap();
        }
        Instance::new(
            path_query(3),
            Database::from_relations([r1, r2, r3]).unwrap(),
        )
        .unwrap()
    }

    fn prepare(instance: &Instance, ranking: Ranking) -> Result<Plan> {
        Plan::prepare(EncodedInstance::from_instance(instance)?, ranking)
    }

    /// Asserts that `result`'s weight holds its target rank in `instance`, give or
    /// take `slack` ranks.
    fn assert_near_target(instance: &Instance, plan: &Plan, result: &QuantileResult, slack: f64) {
        let (below, equal) = rank_of_weight(instance, plan.ranking(), &result.weight).unwrap();
        let target = result.target_index as f64;
        assert!(
            (below as f64) <= target + slack && ((below + equal) as f64) > target - slack,
            "{}: window [{below}, {}) vs target {target} ± {slack}",
            plan.ranking(),
            below + equal
        );
    }

    #[test]
    fn exact_requests_route_by_ranking_kind() {
        let inst = three_path_instance(15);
        for (ranking, label) in [
            (Ranking::max(inst.query().variables()), "minmax"),
            (Ranking::min(vars(&["x2", "x3"])), "minmax"),
            (Ranking::lex(vars(&["x1", "x4"])), "lex"),
            (Ranking::sum(vars(&["x2"])), "sum-single-atom"),
            (Ranking::sum(vars(&["x1", "x2", "x3"])), "sum-adjacent-pair"),
        ] {
            let plan = prepare(&inst, ranking).unwrap();
            assert_eq!(plan.strategy().label(), label);
            assert!(plan.strategy().supports_exact());
            let results = plan
                .solve(&[0.5, 0.1], Accuracy::Exact, &NoopTracer)
                .unwrap();
            for result in &results {
                assert_near_target(&inst, &plan, result, 0.0);
            }
        }
    }

    #[test]
    fn approximate_requests_answer_intractable_sums() {
        let inst = three_path_instance(12);
        let plan = prepare(&inst, Ranking::sum(inst.query().variables())).unwrap();
        assert_eq!(plan.strategy().label(), "sum-approximate-only");
        let accuracy = Accuracy::Approximate { epsilon: 0.1 };
        for result in plan
            .solve(&[0.25, 0.5, 0.75], accuracy, &NoopTracer)
            .unwrap()
        {
            // Accumulated error over O(log) iterations with ε = 0.1 spent per trim.
            let iterations = result.iterations.max(1) as f64;
            let slack = (0.1 * 2.0 * iterations * result.total_answers as f64).max(1.0);
            assert_near_target(&inst, &plan, &result, slack);
        }
    }

    #[test]
    fn the_guaranteed_budget_is_exact_on_small_instances() {
        // With the conservative budget the sketches are exact on small data, so the
        // approximation returns a true quantile.
        let inst = three_path_instance(6);
        let plan = prepare(&inst, Ranking::sum(inst.query().variables())).unwrap();
        let epsilon = plan.guaranteed_per_trim_epsilon(0.2).unwrap();
        assert!(epsilon < 0.2 / 2.0, "{epsilon}");
        let accuracy = Accuracy::Approximate { epsilon };
        let result = plan.solve(&[0.5], accuracy, &NoopTracer).unwrap();
        assert_near_target(&inst, &plan, &result[0], 0.0);
    }

    /// Every refusal, one row each, and the requests next to them that are served.
    #[test]
    fn every_refusal_is_typed() {
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.add_relation(Relation::from_rows(name, &[&[1, 1]]).unwrap())
                .unwrap();
        }
        let triangle = Instance::new(triangle_query(), db).unwrap();
        let cyclic = prepare(&triangle, Ranking::sum(triangle_query().variables()));
        assert!(
            matches!(cyclic, Err(CoreError::CyclicQuery(_))),
            "{cyclic:?}"
        );

        // The exact gate must hold on an instance the driver would materialize
        // directly (|Q(D)| at most the rows) as well as on one it would trim.
        let (small, large) = (three_path_instance(3), three_path_instance(15));
        let full_sum = |inst: &Instance| prepare(inst, Ranking::sum(inst.query().variables()));
        let (leaf_only, trimmed) = (full_sum(&small).unwrap(), full_sum(&large).unwrap());
        assert!(leaf_only.total_answers() <= small.database_size() as u128);
        assert!(trimmed.total_answers() > large.database_size() as u128);
        let max = prepare(&large, Ranking::max(large.query().variables())).unwrap();
        let lex = prepare(&large, Ranking::lex(vars(&["x1", "x4"]))).unwrap();

        let approximate = |epsilon| Accuracy::Approximate { epsilon };
        let bounded = |epsilon, delta| Accuracy::Bounded {
            epsilon,
            delta,
            seed: 7,
        };
        let intractable = CoreError::IntractableSum(String::new());
        let unsupported = CoreError::UnsupportedRanking(String::new());
        let (bad_phi, bad_epsilon) = (CoreError::InvalidPhi(0.0), CoreError::InvalidEpsilon(0.0));
        let bad_delta = CoreError::InvalidDelta(0.0);
        let mut rows: Vec<(&Plan, Accuracy, f64, Option<&CoreError>)> = vec![
            (&leaf_only, Accuracy::Exact, 0.5, Some(&intractable)),
            (&trimmed, Accuracy::Exact, 0.5, Some(&intractable)),
            (&trimmed, approximate(0.1), 0.5, None),
            (&trimmed, bounded(0.3, 0.5), 0.5, None),
            (&max, Accuracy::Exact, 0.5, None),
            (&max, approximate(0.1), 0.5, Some(&unsupported)),
            (&lex, approximate(0.1), 0.5, Some(&unsupported)),
            (&max, bounded(0.3, 0.5), 0.5, None),
        ];
        for plan in [&trimmed, &max] {
            for phi in [f64::NAN, -0.1, 1.5] {
                rows.push((plan, bounded(0.3, 0.5), phi, Some(&bad_phi)));
            }
            for epsilon in [0.0, 1.0, -0.5, f64::NAN] {
                rows.push((plan, bounded(epsilon, 0.5), 0.5, Some(&bad_epsilon)));
            }
            for delta in [0.0, 1.0, 1.5, f64::NAN] {
                rows.push((plan, bounded(0.3, delta), 0.5, Some(&bad_delta)));
            }
        }
        for phi in [f64::NAN, -0.1, 1.5] {
            rows.push((&max, Accuracy::Exact, phi, Some(&bad_phi)));
            rows.push((&trimmed, approximate(0.1), phi, Some(&bad_phi)));
        }
        for epsilon in [0.0, 1.0, -0.5, f64::NAN] {
            rows.push((&trimmed, approximate(epsilon), 0.5, Some(&bad_epsilon)));
        }
        for (plan, accuracy, phi, refusal) in rows {
            let row = format!("{} {accuracy:?} φ={phi}", plan.ranking());
            match (plan.solve(&[0.5, phi], accuracy, &NoopTracer), refusal) {
                (Ok(results), None) => assert_eq!(results.len(), 2, "{row}"),
                (Err(err), Some(expected)) => {
                    assert_eq!(discriminant(&err), discriminant(expected), "{row}: {err:?}")
                }
                (outcome, _) => panic!("{row}: expected {refusal:?}, got {outcome:?}"),
            }
        }
    }
}
