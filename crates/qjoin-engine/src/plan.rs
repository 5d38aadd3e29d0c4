//! Prepared plans: a registration compiled once, served many times.
//!
//! Registering a `(query, ranking)` pair against a catalog database performs, **once**,
//! on the generation's dictionary-coded form (the only copy the catalog keeps):
//!
//! 1. acyclicity via GYO, caching the resulting join tree,
//! 2. schema validation (the query's atoms match the database's relations),
//! 3. one counting pass (Example 2.1), caching `|Q(D)|`, which builds and memoises
//!    the plan's link-resolved execution context, so the first request of a
//!    generation does not pay for it,
//! 4. the §5 dichotomy (Theorem 5.6), selecting the trimming strategy.
//!
//! A registration whose answer count cannot be bounded below `2^128` is refused
//! with [`EngineError::TooLarge`] before any counting. Every subsequent quantile
//! request against the plan is checked against the strategy
//! (`PreparedPlan::check_accuracy`) and skips straight to the §3 recursion. A plan
//! remembers the database generation it was compiled against; the engine
//! recompiles it — with no state lock held — when the database is replaced.

use crate::coalesce::Combiner;
use crate::error::EngineError;
use qjoin_core::dichotomy::{classify_partial_sum, SumClassification};
use qjoin_core::{CoreError, QuantileResult};
use qjoin_data::EncodedDatabase;
use qjoin_query::{acyclicity, EncodedInstance, JoinQuery, JoinTree};
use qjoin_ranking::{AggregateKind, Ranking};
use std::time::Duration;

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
    /// ([`qjoin_core::CoreError::ApproxRefused`]) when the sample budget meets or
    /// exceeds the answer count — the regime where sampling cannot beat an exact
    /// solve.
    Bounded {
        /// The rank-error tolerance ε ∈ (0, 1).
        epsilon: f64,
        /// The failure probability δ ∈ (0, 1).
        delta: f64,
        /// RNG seed; equal seeds give pointwise-identical answers at any thread count.
        seed: u64,
    },
}

impl Accuracy {
    /// A stable cache-key component: `None` for exact, the ε bit pattern for the
    /// deterministic approximation, and an (ε, δ, seed) mix with the top bit forced
    /// for the sampler — a valid deterministic ε is positive, so its sign bit is
    /// zero and the two routes can never collide at equal ε.
    pub(crate) fn key_bits(&self) -> Option<u64> {
        match self {
            Accuracy::Exact => None,
            Accuracy::Approximate { epsilon } => Some(epsilon.to_bits()),
            Accuracy::Bounded {
                epsilon,
                delta,
                seed,
            } => {
                let mut bits = epsilon.to_bits();
                bits = bits.rotate_left(21) ^ delta.to_bits();
                bits = bits.rotate_left(21) ^ seed;
                Some(bits | 1 << 63)
            }
        }
    }
}

/// The trimming strategy selected for a plan by the §5 dichotomy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanStrategy {
    /// MIN/MAX ranking: exact pivoting with the Algorithm 3 trimmer (Theorem 5.3).
    MinMax,
    /// LEX ranking: exact pivoting with the §5.2 trimmer.
    Lex,
    /// SUM with all weighted variables in one atom: exact linear-time filter trims.
    SumSingleAtom {
        /// Index of the covering atom.
        atom: usize,
    },
    /// SUM covered by two adjacent join-tree nodes: exact `O(n log n)` trims
    /// (Lemma 5.5).
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

/// A compiled registration, ready to serve quantile requests.
#[derive(Debug)]
pub struct PreparedPlan {
    /// The registration name (unique within an engine).
    pub name: String,
    /// A compact engine-assigned identifier (stable across recompilations).
    pub id: u64,
    /// The catalog database this plan reads.
    pub database: String,
    /// The database generation the plan was compiled against.
    pub generation: u64,
    /// The validated instance over the catalog's dictionary-coded form of the plan's
    /// generation, whose code columns every plan of that generation shares by
    /// handle: every solve runs on it. Always `Some` — [`PreparedPlan::compile`]
    /// fails instead — and an `Option` only because the benchmark (`perfbench/`,
    /// its own workspace) unwraps it.
    pub encoded_instance: Option<EncodedInstance>,
    /// The plan's ranking function.
    pub ranking: Ranking,
    /// The cached GYO join tree.
    pub join_tree: JoinTree,
    /// `|Q(D)|` from the compile-time counting pass.
    pub total_answers: u128,
    /// The trimming strategy selected by the dichotomy.
    pub strategy: PlanStrategy,
    /// Wall-clock time spent compiling the plan.
    pub compile_time: Duration,
    /// Where concurrent cold exact requests against this handle coalesce (see the
    /// `coalesce` module).
    pub(crate) combiner: Combiner<QuantileResult>,
}

impl PreparedPlan {
    /// Compiles a registration: derives the join tree, validates, counts, classifies.
    /// The plan's instance shares the generation's dictionary-coded columns by
    /// handle — no relation data is copied.
    pub fn compile(
        name: &str,
        id: u64,
        database_name: &str,
        generation: u64,
        query: JoinQuery,
        ranking: Ranking,
        encoded: &EncodedDatabase,
    ) -> Result<PreparedPlan, EngineError> {
        let start = std::time::Instant::now();
        let join_tree = acyclicity::gyo_join_tree(&query)
            .ok_or_else(|| EngineError::Core(CoreError::CyclicQuery(query.to_string())))?;
        let encoded_instance = EncodedInstance::from_encoded_database(query, encoded)?;
        // If the product of relation sizes fits in `u128`, no intermediate product
        // or group sum of either counting pass can overflow (they `expect` it).
        if encoded_instance.answer_count_upper_bound().is_none() {
            return Err(EngineError::TooLarge {
                plan: name.to_string(),
            });
        }
        let total_answers = qjoin_exec::encoded::count_answers(&encoded_instance)?;
        let strategy = match ranking.kind() {
            AggregateKind::Min | AggregateKind::Max => PlanStrategy::MinMax,
            AggregateKind::Lex => PlanStrategy::Lex,
            AggregateKind::Sum => {
                match classify_partial_sum(encoded_instance.query(), ranking.weighted_vars()) {
                    SumClassification::TractableSingleAtom { atom } => {
                        PlanStrategy::SumSingleAtom { atom }
                    }
                    SumClassification::TractableAdjacentPair { atoms } => {
                        PlanStrategy::SumAdjacentPair { atoms }
                    }
                    intractable => PlanStrategy::SumApproximateOnly {
                        witness: format!("{intractable:?}"),
                    },
                }
            }
        };
        Ok(PreparedPlan {
            name: name.to_string(),
            id,
            database: database_name.to_string(),
            generation,
            encoded_instance: Some(encoded_instance),
            ranking,
            join_tree,
            total_answers,
            strategy,
            compile_time: start.elapsed(),
            combiner: Combiner::default(),
        })
    }

    /// The encoded instance every solve runs on.
    pub(crate) fn encoded(&self) -> Result<&EncodedInstance, EngineError> {
        let missing = || CoreError::Internal(format!("plan {} has no encoded instance", self.name));
        Ok(self.encoded_instance.as_ref().ok_or_else(missing)?)
    }

    /// Checks that the plan can serve a request of the given accuracy, or explains
    /// why it cannot: exact requests need a tractable strategy, ε-approximate ones a
    /// SUM ranking, and every ε and δ must lie in `(0, 1)`. Randomized sampling
    /// serves any plan.
    pub(crate) fn check_accuracy(&self, accuracy: Accuracy) -> Result<(), EngineError> {
        let cannot = |reason: String| {
            Err(EngineError::PlanCannotServe {
                plan: self.name.clone(),
                reason,
            })
        };
        let in_unit_interval = |x: f64| x > 0.0 && x < 1.0;
        match accuracy {
            Accuracy::Exact => match &self.strategy {
                PlanStrategy::SumApproximateOnly { witness } => cannot(format!(
                    "exact SUM solving is intractable ({witness}); request an \
                     approximate quantile with an ε budget instead"
                )),
                _ => Ok(()),
            },
            Accuracy::Approximate { .. } if self.ranking.kind() != AggregateKind::Sum => {
                cannot(format!(
                    "ε-approximation targets SUM rankings; this plan ranks by {:?} \
                     (exact solving is already quasilinear)",
                    self.ranking.kind()
                ))
            }
            Accuracy::Approximate { epsilon } | Accuracy::Bounded { epsilon, .. }
                if !in_unit_interval(epsilon) =>
            {
                Err(EngineError::Core(CoreError::InvalidEpsilon(epsilon)))
            }
            Accuracy::Bounded { delta, .. } if !in_unit_interval(delta) => cannot(format!(
                "sampling failure probability delta must be in (0, 1), got {delta}"
            )),
            Accuracy::Approximate { .. } | Accuracy::Bounded { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qjoin_data::{Database, Relation};
    use qjoin_exec::count::count_answers;
    use qjoin_query::query::{path_query, triangle_query};
    use qjoin_query::variable::vars;
    use qjoin_query::Instance;
    use std::sync::Arc;

    fn three_path_db(n: i64) -> Database {
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        let mut r3 = Relation::new("R3", 2);
        for i in 0..n {
            r1.push(vec![((7 * i) % 43).into(), (i % 3).into()])
                .unwrap();
            r2.push(vec![(i % 3).into(), ((5 * i) % 37).into()])
                .unwrap();
            r3.push(vec![((5 * i) % 37).into(), ((3 * i) % 31).into()])
                .unwrap();
        }
        Database::from_relations([r1, r2, r3]).unwrap()
    }

    /// `atoms` variable-disjoint atoms over one unary relation of `rows` rows:
    /// `rows^atoms` answers.
    pub(crate) fn wide(rows: i64, atoms: usize) -> (JoinQuery, Database) {
        let mut relation = Relation::new("W", 1);
        for i in 0..rows {
            relation.push(vec![i.into()]).unwrap();
        }
        let atoms = (0..atoms).map(|i| qjoin_query::Atom::new("W", vars(&[&format!("v{i}")])));
        let database = Database::from_relations([relation]).unwrap();
        (JoinQuery::new(atoms.collect()), database)
    }

    #[test]
    fn compile_caches_counts_and_selects_strategies() {
        let db = three_path_db(12);
        let cases: Vec<(Ranking, &str, bool)> = vec![
            (Ranking::max(path_query(3).variables()), "minmax", true),
            (Ranking::lex(vars(&["x1", "x4"])), "lex", true),
            (Ranking::sum(vars(&["x2"])), "sum-single-atom", true),
            (
                Ranking::sum(vars(&["x1", "x2", "x3"])),
                "sum-adjacent-pair",
                true,
            ),
            (
                Ranking::sum(path_query(3).variables()),
                "sum-approximate-only",
                false,
            ),
        ];
        // `compile` counts on the encoded context and leaves that context memoised.
        let encoded = EncodedDatabase::encode(&db).unwrap();
        for (i, (ranking, label, exact)) in cases.into_iter().enumerate() {
            let (query, ranking) = (path_query(3), ranking.clone());
            let plan =
                PreparedPlan::compile("p", i as u64, "db", 1, query, ranking, &encoded).unwrap();
            assert_eq!(plan.strategy.label(), label);
            assert_eq!(plan.strategy.supports_exact(), exact);
            assert!(plan.total_answers > 0);
            assert_eq!(
                plan.total_answers,
                count_answers(&Instance::new(path_query(3), db.clone()).unwrap()).unwrap(),
                "cached count must match a fresh row Yannakakis pass"
            );
            let instance = plan.encoded().unwrap();
            let memo = instance.exec_memo().get::<qjoin_exec::EncodedContext>();
            let ctx = memo.expect("compile memoises the encoded context");
            let shared = qjoin_exec::encoded::shared_context(instance).unwrap();
            assert!(Arc::ptr_eq(&ctx, &shared), "the first reader reuses it");
            let recount = qjoin_exec::encoded::count_answers_ctx(&ctx);
            assert_eq!(plan.total_answers, recount);
        }
    }

    #[test]
    fn an_unboundable_answer_count_is_refused_before_counting() {
        // Ten variable-disjoint atoms over one 8 192-row unary relation: 2^130
        // answers. The counting pass would overflow its `u128` and panic.
        let (query, db) = wide(8192, 10);
        let ranking = Ranking::max(query.variables());
        let encoded = EncodedDatabase::encode(&db).unwrap();
        let err = PreparedPlan::compile("wide", 0, "db", 1, query, ranking, &encoded).unwrap_err();
        assert_eq!(
            err,
            EngineError::TooLarge {
                plan: "wide".into()
            }
        );
        assert!(err.to_string().contains("2^128"), "{err}");
    }

    #[test]
    fn cyclic_queries_fail_to_compile() {
        let db = Database::from_relations([
            Relation::from_rows("R", &[&[1, 1]]).unwrap(),
            Relation::from_rows("S", &[&[1, 1]]).unwrap(),
            Relation::from_rows("T", &[&[1, 1]]).unwrap(),
        ])
        .unwrap();
        let ranking = Ranking::sum(triangle_query().variables());
        let encoded = EncodedDatabase::encode(&db).unwrap();
        let err = PreparedPlan::compile("p", 0, "db", 1, triangle_query(), ranking, &encoded)
            .unwrap_err();
        assert!(matches!(err, EngineError::Core(CoreError::CyclicQuery(_))));
    }

    /// Every refusal the plan makes before a solve: exact on an intractable SUM
    /// plan, ε on a non-SUM plan, ε or δ outside `(0, 1)`. Sampling serves any plan.
    #[test]
    fn accuracy_check_refuses_what_the_plan_cannot_serve() {
        let encoded = EncodedDatabase::encode(&three_path_db(8)).unwrap();
        let compile = |name: &str, ranking: Ranking| {
            PreparedPlan::compile(name, 0, "db", 1, path_query(3), ranking, &encoded).unwrap()
        };
        let intractable = compile("p", Ranking::sum(path_query(3).variables()));
        let minmax = compile("m", Ranking::max(path_query(3).variables()));
        let approximate = |epsilon| Accuracy::Approximate { epsilon };
        let bounded = |epsilon, delta| Accuracy::Bounded {
            epsilon,
            delta,
            seed: 7,
        };
        let cannot_serve = |refused: Result<(), EngineError>| {
            matches!(refused, Err(EngineError::PlanCannotServe { .. }))
        };
        let invalid_epsilon = |refused: Result<(), EngineError>| {
            matches!(
                refused,
                Err(EngineError::Core(CoreError::InvalidEpsilon(_)))
            )
        };

        assert!(cannot_serve(intractable.check_accuracy(Accuracy::Exact)));
        assert!(intractable.check_accuracy(approximate(0.1)).is_ok());
        assert!(invalid_epsilon(
            intractable.check_accuracy(approximate(1.5))
        ));
        assert!(intractable.check_accuracy(bounded(0.1, 0.05)).is_ok());

        assert!(minmax.check_accuracy(Accuracy::Exact).is_ok());
        assert!(cannot_serve(minmax.check_accuracy(approximate(0.1))));
        assert!(minmax.check_accuracy(bounded(0.1, 0.05)).is_ok());
        for epsilon in [0.0, 1.0, f64::NAN] {
            assert!(invalid_epsilon(
                minmax.check_accuracy(bounded(epsilon, 0.05))
            ));
        }
        for delta in [0.0, 1.5, f64::NAN] {
            assert!(cannot_serve(minmax.check_accuracy(bounded(0.1, delta))));
        }
    }

    #[test]
    fn accuracy_key_bits_distinguish_budgets() {
        assert_eq!(Accuracy::Exact.key_bits(), None);
        assert_ne!(
            Accuracy::Approximate { epsilon: 0.1 }.key_bits(),
            Accuracy::Approximate { epsilon: 0.2 }.key_bits()
        );
        let bounded = |epsilon, delta, seed| Accuracy::Bounded {
            epsilon,
            delta,
            seed,
        };
        // The sampler's key can never collide with a deterministic-ε key, and every
        // parameter participates in it.
        assert_ne!(
            bounded(0.1, 0.01, 7).key_bits(),
            Accuracy::Approximate { epsilon: 0.1 }.key_bits()
        );
        assert_ne!(
            bounded(0.1, 0.01, 7).key_bits(),
            bounded(0.2, 0.01, 7).key_bits()
        );
        assert_ne!(
            bounded(0.1, 0.01, 7).key_bits(),
            bounded(0.1, 0.05, 7).key_bits()
        );
        assert_ne!(
            bounded(0.1, 0.01, 7).key_bits(),
            bounded(0.1, 0.01, 8).key_bits()
        );
    }
}
