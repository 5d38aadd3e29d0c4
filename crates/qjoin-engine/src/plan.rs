//! Prepared plans: a registration compiled once, served many times.
//!
//! A registration builds its query's instance over the generation's
//! dictionary-coded form (the only copy the catalog keeps) and prepares a core
//! [`Plan`] over it: join tree, `|Q(D)|` and dichotomy class, once. Every request
//! goes through [`Plan::solve`]. The engine recompiles a plan — with no state lock
//! held — when its database is replaced.

use crate::coalesce::Combiner;
use crate::error::EngineError;
use qjoin_core::{Accuracy, CoreError, Plan, QuantileResult, SolveTracer};
use qjoin_data::EncodedDatabase;
use qjoin_query::{EncodedInstance, JoinQuery};
use qjoin_ranking::Ranking;
use std::time::Duration;

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
    /// The prepared plan over the catalog's dictionary-coded form of the plan's
    /// generation, whose code columns every plan of that generation shares by
    /// handle: every solve runs on it.
    pub plan: Plan,
    /// A handle clone of `plan`'s instance, sharing its exec memo. Always `Some`,
    /// and public and an `Option` only because the benchmark (`perfbench/`, its
    /// own workspace) unwraps it.
    pub encoded_instance: Option<EncodedInstance>,
    /// Wall-clock time spent compiling the plan.
    pub compile_time: Duration,
    /// Where concurrent cold exact requests against this handle coalesce (see the
    /// `coalesce` module).
    pub(crate) combiner: Combiner<QuantileResult>,
}

impl PreparedPlan {
    /// Compiles a registration: builds the instance and prepares its [`Plan`]. The
    /// plan's instance shares the generation's dictionary-coded columns by handle —
    /// no relation data is copied.
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
        let instance = EncodedInstance::from_encoded_database(query, encoded)?;
        let plan = Plan::prepare(instance, ranking).map_err(|e| match e {
            CoreError::TooLarge(_) => EngineError::TooLarge {
                plan: name.to_string(),
            },
            other => EngineError::Core(other),
        })?;
        Ok(PreparedPlan {
            name: name.to_string(),
            id,
            database: database_name.to_string(),
            generation,
            encoded_instance: Some(plan.instance().clone()),
            plan,
            compile_time: start.elapsed(),
            combiner: Combiner::default(),
        })
    }

    /// [`Plan::solve`], with the refusals a request can avoid by asking differently
    /// — exact on an intractable SUM, ε on a non-SUM ranking, δ outside `(0, 1)` —
    /// reported as [`EngineError::PlanCannotServe`].
    pub(crate) fn solve(
        &self,
        phis: &[f64],
        accuracy: Accuracy,
        tracer: &dyn SolveTracer,
    ) -> Result<Vec<QuantileResult>, EngineError> {
        let reason = match self.plan.solve(phis, accuracy, tracer) {
            Ok(results) => return Ok(results),
            Err(CoreError::IntractableSum(witness)) => format!(
                "exact SUM solving is intractable ({witness}); request an \
                 approximate quantile with an ε budget instead"
            ),
            Err(CoreError::UnsupportedRanking(reason)) => reason,
            Err(CoreError::InvalidDelta(delta)) => {
                format!("sampling failure probability delta must be in (0, 1), got {delta}")
            }
            Err(other) => return Err(EngineError::Core(other)),
        };
        Err(EngineError::PlanCannotServe {
            plan: self.name.clone(),
            reason,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qjoin_data::{Database, Relation};
    use qjoin_exec::count::count_answers;
    use qjoin_query::query::path_query;
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
            let (strategy, total) = (plan.plan.strategy(), plan.plan.total_answers());
            assert_eq!(strategy.label(), label);
            assert_eq!(strategy.supports_exact(), exact);
            assert!(total > 0);
            assert_eq!(
                total,
                count_answers(&Instance::new(path_query(3), db.clone()).unwrap()).unwrap(),
                "cached count must match a fresh row Yannakakis pass"
            );
            let instance = plan.plan.instance();
            let memo = instance.exec_memo().get::<qjoin_exec::EncodedContext>();
            let ctx = memo.expect("compile memoises the encoded context");
            let shared = qjoin_exec::encoded::shared_context(instance).unwrap();
            assert!(Arc::ptr_eq(&ctx, &shared), "the first reader reuses it");
            let recount = qjoin_exec::encoded::count_answers_ctx(&ctx);
            assert_eq!(total, recount);
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

    /// Each refusal of `Plan::solve` (tabled in `qjoin-core`'s plan tests) as the
    /// engine reports it: the ones a request avoids by asking differently are
    /// `PlanCannotServe`, an ε outside `(0, 1)` stays a core error.
    #[test]
    fn refusals_map_to_the_engines_errors() {
        let encoded = EncodedDatabase::encode(&three_path_db(8)).unwrap();
        let compile = |name: &str, ranking: Ranking| {
            PreparedPlan::compile(name, 0, "db", 1, path_query(3), ranking, &encoded).unwrap()
        };
        let intractable = compile("p", Ranking::sum(path_query(3).variables()));
        let minmax = compile("m", Ranking::max(path_query(3).variables()));
        let bounded = |epsilon, delta| Accuracy::Bounded {
            epsilon,
            delta,
            seed: 7,
        };
        let refusal = |plan: &PreparedPlan, accuracy| {
            (plan.solve(&[0.5], accuracy, &qjoin_core::NoopTracer)).unwrap_err()
        };
        let cannot_serve = |err: EngineError| matches!(err, EngineError::PlanCannotServe { .. });

        let exact = refusal(&intractable, Accuracy::Exact);
        assert!(
            exact
                .to_string()
                .contains("request an approximate quantile"),
            "{exact}"
        );
        assert!(cannot_serve(exact));
        let eps_on_max = refusal(&minmax, Accuracy::Approximate { epsilon: 0.1 });
        assert!(
            eps_on_max.to_string().contains("targets SUM rankings"),
            "{eps_on_max}"
        );
        assert!(cannot_serve(eps_on_max));
        assert!(cannot_serve(refusal(&minmax, bounded(0.1, 1.5))));
        assert_eq!(
            refusal(&minmax, bounded(0.0, 0.05)),
            EngineError::Core(CoreError::InvalidEpsilon(0.0))
        );
    }
}
