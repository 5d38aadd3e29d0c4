//! High-level entry points: pick the right algorithm for a ranking function.
//!
//! This is the API most users of the library want: hand over an instance, a ranking
//! function and a fraction `φ`, and get the quantile back. Each entry validates,
//! encodes the instance (a database past the encoded layer's limits is refused with
//! [`CoreError::TooLarge`]) and makes one call into [`crate::encoded`]. The solver
//! routes the request through the dichotomy:
//!
//! * MIN / MAX → exact pivoting with MIN/MAX trims (Theorem 5.3),
//! * LEX → exact pivoting with LEX trims (Section 5.2),
//! * SUM → classify under Theorem 5.6; tractable cases use the exact adjacent-pair
//!   trims, intractable ones report the witness and point at the deterministic
//!   ε-approximation ([`approximate_sum_quantile`], Theorem 6.2) or the randomized
//!   sampling approximation (Section 3.1).

use crate::dichotomy::classify_partial_sum;
use crate::encoded::{
    approximate_sum_quantile_batch_encoded_traced, exact_quantile_batch_encoded_traced,
};
use crate::pivot::pivot_quality;
use crate::quantile::{only, PivotingOptions, QuantileResult};
use crate::trace::NoopTracer;
use crate::{CoreError, Result};
use qjoin_query::{acyclicity, EncodedInstance, Instance};
use qjoin_ranking::{AggregateKind, Ranking};

/// How the per-trim loss budget of the deterministic SUM approximation is derived from
/// the requested overall error ε.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorBudget {
    /// Follow the worst-case analysis of Lemma 3.6: divide ε by twice the bound on the
    /// number of iterations (`2·⌈ℓ·log_{1/(1-c)} n⌉`). Guaranteed, but very
    /// conservative — sketches may degenerate to exact representations on small data.
    Guaranteed,
    /// Spend ε directly on every trim invocation. The accumulated rank error is then
    /// bounded by `2·ε·I/|Q(D)|` over `I` iterations in the worst case, which the
    /// experiments measure empirically; this is the practical default.
    Direct,
}

/// Computes an **exact** `φ`-quantile, choosing the trimming subroutine according to
/// the ranking function and the dichotomy of Theorem 5.6.
pub fn exact_quantile(instance: &Instance, ranking: &Ranking, phi: f64) -> Result<QuantileResult> {
    Ok(only(exact_quantile_batch(instance, ranking, &[phi])?))
}

/// Computes **exact** `φ`-quantiles for every fraction in `phis` with one shared
/// divide-and-conquer pass (see [`crate::batch`]); results are pointwise identical to
/// independent [`exact_quantile`] calls but cost one traversal plus `O(k)` leaf
/// resolutions instead of `k` full solves.
pub fn exact_quantile_batch(
    instance: &Instance,
    ranking: &Ranking,
    phis: &[f64],
) -> Result<Vec<QuantileResult>> {
    if acyclicity::gyo_join_tree(instance.query()).is_none() {
        return Err(CoreError::CyclicQuery(instance.query().to_string()));
    }
    // The §5.6 gate runs before solving: even solves that never trim (instances
    // small enough to materialize directly) must refuse intractable SUM rankings
    // with a witness rather than quietly answering.
    if ranking.kind() == AggregateKind::Sum {
        let classification = classify_partial_sum(instance.query(), ranking.weighted_vars());
        if !classification.is_tractable() {
            return Err(CoreError::IntractableSum(format!("{classification:?}")));
        }
    }
    let encoded = EncodedInstance::from_instance(instance)?;
    let options = PivotingOptions::default();
    exact_quantile_batch_encoded_traced(&encoded, ranking, phis, &options, &NoopTracer)
}

/// Validates the approximate-SUM request and derives the per-trim loss budget
/// from the requested overall ε.
pub fn per_trim_epsilon_for(
    instance: &Instance,
    ranking: &Ranking,
    epsilon: f64,
    budget: ErrorBudget,
) -> Result<f64> {
    if ranking.kind() != AggregateKind::Sum {
        return Err(CoreError::UnsupportedRanking(
            "the deterministic approximation targets SUM ranking functions".to_string(),
        ));
    }
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(CoreError::InvalidEpsilon(epsilon));
    }
    let tree = acyclicity::gyo_join_tree(instance.query())
        .ok_or_else(|| CoreError::CyclicQuery(instance.query().to_string()))?;
    Ok(match budget {
        ErrorBudget::Direct => epsilon,
        ErrorBudget::Guaranteed => {
            let n = instance.database_size().max(2) as f64;
            let ell = instance.query().num_atoms() as f64;
            let c = pivot_quality(&tree).clamp(1e-6, 0.5);
            let iterations = (ell * n.ln() / (1.0 / (1.0 - c)).ln()).ceil().max(1.0);
            (epsilon / (2.0 * iterations)).max(1e-6)
        }
    })
}

/// Computes a deterministic `(φ ± ε)`-approximate quantile for SUM ranking functions
/// on arbitrary acyclic queries (Theorem 6.2), including the ones that are intractable
/// exactly: ε-sketches over per-code weight tables, one Algorithm-4 construction per
/// solve, every trim a window of it.
pub fn approximate_sum_quantile(
    instance: &Instance,
    ranking: &Ranking,
    phi: f64,
    epsilon: f64,
    budget: ErrorBudget,
) -> Result<QuantileResult> {
    let per_trim_epsilon = per_trim_epsilon_for(instance, ranking, epsilon, budget)?;
    let encoded = EncodedInstance::from_instance(instance)?;
    let options = PivotingOptions::default();
    Ok(only(approximate_sum_quantile_batch_encoded_traced(
        &encoded,
        ranking,
        &[phi],
        per_trim_epsilon,
        &options,
        &NoopTracer,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::rank_of_weight;
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::{path_query, triangle_query};
    use qjoin_query::variable::vars;

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

    #[test]
    fn exact_solver_routes_by_ranking_kind() {
        let inst = three_path_instance(15);
        for ranking in [
            Ranking::max(inst.query().variables()),
            Ranking::min(vars(&["x2", "x3"])),
            Ranking::lex(vars(&["x1", "x4"])),
            Ranking::sum(vars(&["x1", "x2", "x3"])),
        ] {
            let result = exact_quantile(&inst, &ranking, 0.5).unwrap();
            let (below, equal) = rank_of_weight(&inst, &ranking, &result.weight).unwrap();
            assert!(
                result.target_index >= below && result.target_index < below + equal,
                "ranking {ranking}"
            );
        }
    }

    #[test]
    fn exact_solver_rejects_intractable_sums_with_a_witness() {
        let inst = three_path_instance(10);
        let ranking = Ranking::sum(inst.query().variables());
        let err = exact_quantile(&inst, &ranking, 0.5).unwrap_err();
        assert!(matches!(err, CoreError::IntractableSum(_)));
    }

    #[test]
    fn approximate_solver_handles_intractable_sums() {
        let inst = three_path_instance(12);
        let ranking = Ranking::sum(inst.query().variables());
        for phi in [0.25, 0.5, 0.75] {
            let result =
                approximate_sum_quantile(&inst, &ranking, phi, 0.1, ErrorBudget::Direct).unwrap();
            let (below, equal) = rank_of_weight(&inst, &ranking, &result.weight).unwrap();
            let total = result.total_answers as f64;
            // Accumulated error over O(log) iterations with ε = 0.1: allow a generous
            // rank band around φ and verify the answer's window intersects it.
            let slack = (0.1 * 2.0 * (result.iterations.max(1) as f64) * total).max(1.0);
            let lo = (result.target_index as f64) - slack;
            let hi = (result.target_index as f64) + slack;
            assert!(
                (below as f64) <= hi && (below + equal) as f64 >= lo,
                "phi {phi}: window [{below}, {}) vs [{lo}, {hi}]",
                below + equal
            );
        }
    }

    #[test]
    fn guaranteed_budget_matches_exact_on_small_instances() {
        // With the conservative budget the sketches are exact on small data, so the
        // approximation returns a true quantile.
        let inst = three_path_instance(6);
        let ranking = Ranking::sum(inst.query().variables());
        let result =
            approximate_sum_quantile(&inst, &ranking, 0.5, 0.2, ErrorBudget::Guaranteed).unwrap();
        let (below, equal) = rank_of_weight(&inst, &ranking, &result.weight).unwrap();
        assert!(result.target_index >= below && result.target_index < below + equal);
    }

    #[test]
    fn cyclic_queries_are_rejected_by_both_solvers() {
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.add_relation(Relation::from_rows(name, &[&[1, 1]]).unwrap())
                .unwrap();
        }
        let inst = Instance::new(triangle_query(), db).unwrap();
        let ranking = Ranking::sum(inst.query().variables());
        assert!(matches!(
            exact_quantile(&inst, &ranking, 0.5).unwrap_err(),
            CoreError::CyclicQuery(_)
        ));
        assert!(matches!(
            approximate_sum_quantile(&inst, &ranking, 0.5, 0.1, ErrorBudget::Direct).unwrap_err(),
            CoreError::CyclicQuery(_)
        ));
    }

    #[test]
    fn approximate_solver_validates_parameters() {
        let inst = three_path_instance(5);
        let sum = Ranking::sum(inst.query().variables());
        assert!(matches!(
            approximate_sum_quantile(&inst, &sum, 0.5, 0.0, ErrorBudget::Direct).unwrap_err(),
            CoreError::InvalidEpsilon(_)
        ));
        let max = Ranking::max(inst.query().variables());
        assert!(matches!(
            approximate_sum_quantile(&inst, &max, 0.5, 0.1, ErrorBudget::Direct).unwrap_err(),
            CoreError::UnsupportedRanking(_)
        ));
    }
}
