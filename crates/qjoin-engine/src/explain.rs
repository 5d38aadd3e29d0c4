//! `explain`: a static report of how a plan would serve a φ-quantile, and
//! `explain analyze`: the same report plus an actual traced solve.
//!
//! The static half reads only compile-time facts off the
//! [`PreparedPlan`](crate::plan::PreparedPlan): the
//! §5 dichotomy class the registration landed in (and why), the join-tree
//! shape the §3 recursion will walk, `|Q(D)|`, and the target rank
//! `⌈φ·|Q(D)|⌉` the pivoting search will steer toward. It never touches tuple data, so `explain` is safe to run
//! against a plan of any size.
//!
//! The analyze half runs one real **uncached** solve under a dedicated span
//! trace (bypassing the result cache and the combiner, so the observed
//! rounds are always the plan's own work) and folds the recorded spans back
//! into per-round observations: pre-trim candidate count and the
//! `n_lt`/`n_eq`/`n_gt` split of every trim round, and the leaf's size and keyed
//! tie band. The trace also lands
//! in the flight recorder, so `trace id <id>` / `trace chrome <id>` can replay
//! exactly the solve the report summarizes.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::plan::{Accuracy, PlanStrategy};
use qjoin_telemetry::{Trace, TraceId};
use std::fmt;

/// The ε used by `explain analyze` against plans whose exact SUM path is
/// intractable: analyze must observe *some* solve, and the approximate path is
/// the only one such plans can serve.
pub const EXPLAIN_ANALYZE_EPSILON: f64 = 0.05;

/// What `explain <plan> <phi>` reports: the plan's compile-time facts plus,
/// for `explain analyze`, one traced solve's observations.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The plan name.
    pub plan: String,
    /// The catalog database the plan reads.
    pub database: String,
    /// The database generation the plan was compiled against.
    pub generation: u64,
    /// The dichotomy class label (`minmax`, `lex`, `sum-single-atom`,
    /// `sum-adjacent-pair`, `sum-approximate-only`).
    pub strategy: &'static str,
    /// One sentence placing the plan in the paper's §5 dichotomy.
    pub dichotomy: String,
    /// True when the plan can serve exact quantiles.
    pub supports_exact: bool,
    /// Atoms (= join-tree nodes) in the plan's join tree.
    pub join_tree_atoms: usize,
    /// Height of the join tree.
    pub join_tree_height: usize,
    /// True when every node has at most two children.
    pub join_tree_binary: bool,
    /// `|Q(D)|` from the compile-time Yannakakis counting pass.
    pub total_answers: u128,
    /// The requested fraction.
    pub phi: f64,
    /// The 0-based rank `target_rank(φ, |Q(D)|)` the pivoting search steers
    /// toward (`None` when the join is empty).
    pub target_rank: Option<u128>,
    /// Present for `explain analyze`: observations from one traced solve.
    pub analyze: Option<AnalyzeReport>,
}

/// Observations folded out of one traced, uncached solve.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// The trace id the solve recorded under (replayable via `trace id` /
    /// `trace chrome` while it stays in the flight recorder).
    pub trace: TraceId,
    /// The accuracy the analyze solve ran at (approximate for plans whose
    /// exact path is intractable).
    pub accuracy: Accuracy,
    /// Pivoting rounds the solve reported.
    pub rounds: u64,
    /// Per trim round: the round index, pre-trim candidate count, and the
    /// `n_lt`/`n_eq`/`n_gt` split around the pivot, in round order.
    pub per_round: Vec<AnalyzeRound>,
    /// Whole-solve wall time in microseconds.
    pub solve_us: f64,
    /// Answers the final leaf resolution walked, when observed.
    pub materialized: Option<u64>,
    /// Of those, the answers it built a key for — the tie band around the target
    /// weight (the rest were ranked on their weight alone).
    pub keyed: Option<u64>,
}

/// One observed trim round.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyzeRound {
    /// The recursion round index (0-based).
    pub round: u64,
    /// Candidate answers entering the round.
    pub candidates: u64,
    /// Answers ranked strictly below the pivot.
    pub n_lt: u64,
    /// Answers tied with the pivot.
    pub n_eq: u64,
    /// Answers ranked strictly above the pivot.
    pub n_gt: u64,
    /// Time spent in the round's trim, in microseconds.
    pub dur_us: f64,
}

/// The §5 dichotomy sentence for one strategy.
fn dichotomy_sentence(strategy: &PlanStrategy) -> String {
    match strategy {
        PlanStrategy::MinMax => "MIN/MAX ranking: tractable for every acyclic query \
             (Theorem 5.3) — exact pivoting with Algorithm 3 trims."
            .to_string(),
        PlanStrategy::Lex => "LEX ranking: tractable for every acyclic query — exact \
             pivoting with the §5.2 lexicographic trimmer."
            .to_string(),
        PlanStrategy::SumSingleAtom { .. } => "SUM with every weighted variable in one atom: the \
             tractable side of the Theorem 5.6 dichotomy — exact \
             linear-time filter trims."
            .to_string(),
        PlanStrategy::SumAdjacentPair { atoms } => format!(
            "SUM covered by the two adjacent join-tree atoms {} and {}: \
             the tractable side of the Theorem 5.6 dichotomy — exact \
             O(n log n) trims (Lemma 5.5).",
            atoms.0, atoms.1
        ),
        PlanStrategy::SumApproximateOnly { witness } => format!(
            "SUM on the intractable side of the Theorem 5.6 dichotomy \
             ({witness}): exact quantiles are NP-hard here, only the \
             ε-approximate path is available."
        ),
    }
}

impl ExplainReport {
    /// Renders the report as the CLI's multi-line `explain` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        use fmt::Write as _;
        let _ = writeln!(
            out,
            "plan {} on {} (generation {})",
            self.plan, self.database, self.generation
        );
        let _ = writeln!(out, "  dichotomy class: {}", self.strategy);
        let _ = writeln!(out, "    {}", self.dichotomy);
        let _ = writeln!(
            out,
            "  join tree: {} atoms, height {}, {}",
            self.join_tree_atoms,
            self.join_tree_height,
            if self.join_tree_binary {
                "binary"
            } else {
                "non-binary"
            }
        );
        let _ = writeln!(out, "  |Q(D)| = {} answers", self.total_answers);
        match self.target_rank {
            Some(rank) => {
                let _ = writeln!(out, "  phi={:.4} targets rank {} (0-based)", self.phi, rank);
            }
            None => {
                let _ = writeln!(out, "  phi={:.4}: the join is empty", self.phi);
            }
        }
        if let Some(analyze) = &self.analyze {
            let _ = writeln!(
                out,
                "  analyze: solved in {:.3}us ({} round{}, {}, trace {})",
                analyze.solve_us,
                analyze.rounds,
                if analyze.rounds == 1 { "" } else { "s" },
                match analyze.accuracy {
                    Accuracy::Exact => "exact".to_string(),
                    Accuracy::Approximate { epsilon } => format!("approximate eps={epsilon}"),
                    Accuracy::Bounded { epsilon, delta, .. } => {
                        format!("sampled eps={epsilon} delta={delta}")
                    }
                },
                analyze.trace,
            );
            for round in &analyze.per_round {
                let _ = writeln!(
                    out,
                    "    round {}: {} candidates -> n_lt={} n_eq={} n_gt={} ({:.3}us)",
                    round.round, round.candidates, round.n_lt, round.n_eq, round.n_gt, round.dur_us
                );
            }
            if let Accuracy::Approximate { epsilon } = analyze.accuracy {
                // A round's inferred n_eq is the pivot plus whatever its two lossy
                // windows dropped, so the solve missed its rank by at most their sum.
                let dropped: u64 = (analyze.per_round.iter())
                    .map(|round| round.n_eq.saturating_sub(1))
                    .sum();
                let _ = writeln!(
                    out,
                    "    certified rank error ≤ Σ_rounds (n_eq − 1) / |Q(D)| = {} / {} = {:.6}  \
                     (requested ε = {})",
                    dropped,
                    self.total_answers,
                    dropped as f64 / self.total_answers.max(1) as f64,
                    epsilon
                );
            }
            if let Some(materialized) = analyze.materialized {
                let keyed = (analyze.keyed)
                    .map(|keyed| format!(", {keyed} of them keyed"))
                    .unwrap_or_default();
                let _ = writeln!(out, "    materialized {materialized} leaf tuples{keyed}");
            }
        }
        out
    }
}

/// Folds the spans of one traced solve into an [`AnalyzeReport`].
/// Returns `None` when the trace holds no solve span (tracing disabled).
pub(crate) fn analyze_from_trace(trace: &Trace, accuracy: Accuracy) -> Option<AnalyzeReport> {
    let solve = trace.spans_named("solve").next()?;
    let rounds = solve.arg("rounds").and_then(|v| v.as_u64()).unwrap_or(0);
    let mut per_round: Vec<AnalyzeRound> = trace
        .spans_named("trim-round")
        .map(|span| {
            let get = |key: &str| span.arg(key).and_then(|v| v.as_u64()).unwrap_or(0);
            AnalyzeRound {
                round: get("round"),
                candidates: get("candidates"),
                n_lt: get("n_lt"),
                n_eq: get("n_eq"),
                n_gt: get("n_gt"),
                dur_us: span.dur_ns as f64 / 1_000.0,
            }
        })
        .collect();
    per_round.sort_by_key(|r| r.round);
    let leaf_arg = |key: &str| {
        (trace.spans_named("materialize"))
            .filter_map(|span| span.arg(key).and_then(|v| v.as_u64()))
            .max()
    };
    Some(AnalyzeReport {
        trace: trace.id,
        accuracy,
        rounds,
        per_round,
        solve_us: solve.dur_ns as f64 / 1_000.0,
        materialized: leaf_arg("materialized"),
        keyed: leaf_arg("keyed"),
    })
}

impl Engine {
    /// Explains how `plan` would serve a φ-quantile: the §5 dichotomy class it
    /// compiled into, the join-tree shape, and the target rank. With `analyze`, additionally runs one real uncached solve
    /// under a span trace (exact when the plan supports it, ε-approximate
    /// otherwise) and reports the observed rounds and per-round trim sizes.
    pub fn explain(
        &self,
        plan_name: &str,
        phi: f64,
        analyze: bool,
    ) -> Result<ExplainReport, EngineError> {
        let plan = self.plan(plan_name)?;
        let mut report = ExplainReport {
            plan: plan.name.clone(),
            database: plan.database.clone(),
            generation: plan.generation,
            strategy: plan.strategy.label(),
            dichotomy: dichotomy_sentence(&plan.strategy),
            supports_exact: plan.strategy.supports_exact(),
            join_tree_atoms: plan.join_tree.num_nodes(),
            join_tree_height: plan.join_tree.height(),
            join_tree_binary: plan.join_tree.is_binary(),
            total_answers: plan.total_answers,
            phi,
            target_rank: (plan.total_answers > 0)
                .then(|| qjoin_core::quantile::target_rank(phi, plan.total_answers)),
            analyze: None,
        };
        if analyze {
            let accuracy = if plan.strategy.supports_exact() {
                Accuracy::Exact
            } else {
                Accuracy::Approximate {
                    epsilon: EXPLAIN_ANALYZE_EPSILON,
                }
            };
            let trace = self.traced_uncached_solve(&plan, phi, accuracy)?;
            report.analyze = analyze_from_trace(&trace, accuracy);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_core::quantile::rank_of_weight;
    use qjoin_ranking::Ranking;
    use qjoin_workload::path::PathConfig;

    /// On an instance whose upper join groups (1 600 rows) are large enough for the
    /// ε = 0.05 sketches to merge sources, the printed certificate covers the
    /// answer's true rank error. (It need not be ≤ ε: the engine spends the request's
    /// ε on every trim, and the line is what reports the sum.)
    #[test]
    fn analyze_prints_a_certificate_that_covers_the_true_rank_error() {
        let config = PathConfig {
            atoms: 3,
            tuples_per_relation: 80,
            join_domain: 2,
            weight_range: 1000,
            skew: 0.0,
            seed: 11,
        };
        let instance = config.generate();
        let ranking = Ranking::sum(instance.query().variables());
        let engine = Engine::new();
        let (query, database) = instance.clone().into_parts();
        engine.create_database("p", database).unwrap();
        engine
            .register("fullsum", "p", query, ranking.clone())
            .unwrap();
        for phi in [0.2, 0.5, 0.8] {
            let rendered = engine.explain("fullsum", phi, true).unwrap().render();
            let line = (rendered.lines())
                .find(|line| line.contains("certified rank error ≤"))
                .unwrap_or_else(|| panic!("no certificate line in:\n{rendered}"));
            assert!(line.ends_with("(requested ε = 0.05)"), "{line}");
            let mut numbers = line.split(" = ").skip(1);
            let (dropped, total) = numbers.next().unwrap().split_once(" / ").unwrap();
            let (dropped, total): (u128, u128) = (dropped.parse().unwrap(), total.parse().unwrap());
            let printed: f64 = (numbers.next().unwrap().split_whitespace().next().unwrap())
                .parse()
                .unwrap();
            assert!(
                (printed - dropped as f64 / total as f64).abs() < 1e-6,
                "{line}"
            );

            let accuracy = Accuracy::Approximate {
                epsilon: EXPLAIN_ANALYZE_EPSILON,
            };
            let answer = engine
                .quantile_with("fullsum", phi, accuracy)
                .unwrap()
                .result;
            assert_eq!(answer.total_answers, total);
            let (below, equal) = rank_of_weight(&instance, &ranking, &answer.weight).unwrap();
            let target = answer.target_index;
            let error = below.saturating_sub(target) + target.saturating_sub(below + equal - 1);
            assert!(
                error <= dropped,
                "phi {phi}: off by {error}, certified {dropped}"
            );
        }
    }

    #[test]
    fn dichotomy_sentences_name_their_class() {
        assert!(dichotomy_sentence(&PlanStrategy::MinMax).contains("Theorem 5.3"));
        assert!(dichotomy_sentence(&PlanStrategy::Lex).contains("LEX"));
        assert!(
            dichotomy_sentence(&PlanStrategy::SumSingleAtom { atom: 0 }).contains("Theorem 5.6")
        );
        assert!(
            dichotomy_sentence(&PlanStrategy::SumAdjacentPair { atoms: (1, 2) })
                .contains("1 and 2")
        );
        assert!(dichotomy_sentence(&PlanStrategy::SumApproximateOnly {
            witness: "independent set".to_string()
        })
        .contains("NP-hard"));
    }
}
