//! Randomized ε-approximate quantiles by uniform sampling (Section 3.1).
//!
//! With a direct-access structure over the answers of an acyclic JQ (built in linear
//! time, O(log n) per access), answers can be sampled uniformly; the `φ`-quantile of a
//! sample of `O(ε⁻² log(1/δ))` answers is a `(φ ± ε)`-quantile of the full answer set
//! with probability `1 − δ` (Hoeffding's inequality). This is the randomized baseline
//! against which the paper's *deterministic* approximation (Theorem 6.2) is positioned.
//!
//! The sampler runs on the **encoded** substrate. The plan instance keeps one
//! [`EncodedDirectAccess`] per generation in its exec memo (built by the first
//! sampled request, over the instance's shared context), and one set of per-code
//! weight tables. A request draws its `m` answers as rows of dictionary codes into
//! one buffer, weighs each row through those tables, sorts `(weight, draw)` once,
//! and decodes only the draws it picks. It consumes the RNG identically at any
//! thread count, so a seed fully determines the result.
//!
//! When the Hoeffding budget `m` meets or exceeds the answer count — the regime where
//! approximate query processing provably cannot beat exact evaluation (cf. Liu & Wang's
//! AQP hardness results) — the sampler **refuses** with
//! [`CoreError::ApproxRefused`] rather than burning more work than an exact solve;
//! callers should downgrade to an exact or deterministic-ε solve. A budget whose
//! draws do not fit in memory is [`CoreError::TooLarge`].

use crate::encoded::weights::{cmp_flat, CodeWeights, WeightFold};
use crate::quantile::{target_rank, QuantileResult};
use crate::trace::{PhaseContext, SolvePhase, SolveTracer};
use crate::{CoreError, Result};
use qjoin_exec::EncodedDirectAccess;
use qjoin_query::EncodedInstance;
use qjoin_ranking::Ranking;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Parameters of the sampling-based approximation.
#[derive(Clone, Copy, Debug)]
pub struct SamplingOptions {
    /// The rank-error tolerance ε ∈ (0, 1).
    pub epsilon: f64,
    /// The failure probability δ ∈ (0, 1).
    pub delta: f64,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
}

impl SamplingOptions {
    /// The number of samples prescribed by Hoeffding's inequality:
    /// `⌈ln(2/δ) / (2ε²)⌉`.
    pub fn sample_count(&self) -> usize {
        ((2.0 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon)).ceil() as usize
    }
}

/// A zeroed buffer of `width` values per draw of `m`, or [`CoreError::TooLarge`]
/// naming `m` when the size overflows or the allocation fails.
fn buffer<T: Clone + Default>(m: usize, width: usize) -> Result<Vec<T>> {
    let too_large = || {
        CoreError::TooLarge(format!(
            "a Hoeffding sample of m = {m} answers does not fit in memory"
        ))
    };
    let len = m.checked_mul(width).ok_or_else(too_large)?;
    let mut out = Vec::new();
    out.try_reserve_exact(len).map_err(|_| too_large())?;
    out.resize(len, T::default());
    Ok(out)
}

/// The randomized `(φ ± ε)`-approximate quantiles of `phis` (the
/// [`Accuracy::Bounded`](crate::plan::Accuracy::Bounded) route of
/// [`Plan::solve`](crate::plan::Plan::solve), which validates the parameters): the
/// φ-independent Hoeffding sample is drawn and sorted **once**, then every fraction
/// picks its rank from the shared order, so results are pointwise identical to
/// single-φ calls with the same seed. Refuses outright when the sample budget is no
/// smaller than the answer set. Reports one [`SolvePhase::Materialize`] event: `m`
/// answers drawn, one decoded per fraction.
pub(crate) fn sampled_quantiles(
    instance: &EncodedInstance,
    ranking: &Ranking,
    phis: &[f64],
    options: &SamplingOptions,
    tracer: &dyn SolveTracer,
) -> Result<Vec<QuantileResult>> {
    let started = Instant::now();
    let access = EncodedDirectAccess::shared(instance)?;
    let total = access.total();
    if total == 0 {
        return Err(CoreError::NoAnswers);
    }
    let m = options.sample_count().max(1);
    if m as u128 >= total {
        return Err(CoreError::ApproxRefused(format!(
            "Hoeffding budget m = {m} (epsilon = {}, delta = {}) >= |Q(D)| = {total}; \
             sampling cannot beat an exact solve in this regime",
            options.epsilon, options.delta
        )));
    }

    // Draw `m` code rows (a stride of at least one, so a query without variables
    // still has rows to count).
    let schema = access.variables();
    let stride = schema.len().max(1);
    let mut codes: Vec<u64> = buffer(m, stride)?;
    let mut rng = StdRng::seed_from_u64(options.seed);
    for row in codes.chunks_exact_mut(stride) {
        access.codes_at(rng.random_range(0..total), row)?;
    }
    // Weigh every row, then order the draws by weight, ties in draw order.
    let weights = CodeWeights::shared(instance, ranking);
    let fold = WeightFold::new(ranking, &weights, |v| schema.iter().position(|s| s == v));
    let width = fold.width();
    let mut flat: Vec<f64> = buffer(m, width)?;
    for (row, out) in codes.chunks_exact(stride).zip(flat.chunks_exact_mut(width)) {
        fold.write_weight(row, out);
    }
    let mut order: Vec<usize> = buffer(m, 1)?;
    order.iter_mut().enumerate().for_each(|(i, draw)| *draw = i);
    let weight = |draw: usize| &flat[draw * width..(draw + 1) * width];
    order.sort_by(|&a, &b| cmp_flat(weight(a), weight(b)));

    let results = phis
        .iter()
        .map(|&phi| {
            let pick = order[(target_rank(phi, m as u128) as usize).min(m - 1)];
            let row = &codes[pick * stride..][..schema.len()];
            QuantileResult {
                answer: access.decode(row),
                weight: fold.weight_of(row),
                total_answers: total,
                target_index: target_rank(phi, total),
                iterations: 0,
            }
        })
        .collect();
    tracer.phase_event(
        SolvePhase::Materialize,
        started.elapsed(),
        &PhaseContext {
            materialized: Some(m as u64),
            keyed: Some(phis.len() as u64),
            targets: Some(phis.len() as u64),
            ..PhaseContext::default()
        },
    );
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Accuracy, Plan};
    use crate::quantile::{only, rank_of_weight};
    use crate::trace::NoopTracer;
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::{path_query, star_query};
    use qjoin_query::Instance;

    fn instance(n: i64) -> Instance {
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        for i in 0..n {
            r1.push(vec![Value::from(i), Value::from(i % 3)]).unwrap();
            r2.push(vec![Value::from(i % 3), Value::from(2 * i)])
                .unwrap();
        }
        Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap()
    }

    /// A sampled solve of `phis` through the plan.
    fn sample(
        inst: &Instance,
        ranking: &Ranking,
        phis: &[f64],
        options: &SamplingOptions,
    ) -> Result<Vec<QuantileResult>> {
        let plan = Plan::prepare(EncodedInstance::from_instance(inst)?, ranking.clone())?;
        let SamplingOptions {
            epsilon,
            delta,
            seed,
        } = *options;
        let accuracy = Accuracy::Bounded {
            epsilon,
            delta,
            seed,
        };
        plan.solve(phis, accuracy, &NoopTracer)
    }

    fn sample_one(
        inst: &Instance,
        ranking: &Ranking,
        phi: f64,
        options: &SamplingOptions,
    ) -> Result<QuantileResult> {
        Ok(only(sample(inst, ranking, &[phi], options)?))
    }

    #[test]
    fn hoeffding_sample_count_grows_with_precision() {
        let loose = SamplingOptions {
            epsilon: 0.2,
            delta: 0.1,
            seed: 1,
        };
        let tight = SamplingOptions {
            epsilon: 0.02,
            delta: 0.1,
            seed: 1,
        };
        assert!(tight.sample_count() > 50 * loose.sample_count());
    }

    #[test]
    fn sampled_quantile_is_within_epsilon_rank_error() {
        let inst = instance(60);
        let ranking = Ranking::sum(inst.query().variables());
        let options = SamplingOptions {
            epsilon: 0.05,
            delta: 0.01,
            seed: 7,
        };
        for phi in [0.25, 0.5, 0.75] {
            let result = sample_one(&inst, &ranking, phi, &options).unwrap();
            let (below, equal) = rank_of_weight(&inst, &ranking, &result.weight).unwrap();
            let total = result.total_answers as f64;
            let lo = (phi - 3.0 * options.epsilon) * total;
            let hi = (phi + 3.0 * options.epsilon) * total;
            // The answer's rank window must overlap the tolerated band.
            assert!(
                (below as f64) <= hi && (below + equal) as f64 >= lo,
                "phi {phi}: window [{below}, {}) outside [{lo}, {hi}]",
                below + equal
            );
        }
    }

    #[test]
    fn deterministic_given_a_seed() {
        let inst = instance(30);
        let ranking = Ranking::sum(inst.query().variables());
        // ~300 answers; a loose ε keeps the Hoeffding budget below the answer count.
        let options = SamplingOptions {
            epsilon: 0.2,
            delta: 0.1,
            seed: 0x5eed,
        };
        let a = sample_one(&inst, &ranking, 0.5, &options).unwrap();
        let b = sample_one(&inst, &ranking, 0.5, &options).unwrap();
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.answer, b.answer);
    }

    #[test]
    fn batch_matches_independent_single_phi_solves() {
        let inst = instance(40);
        let ranking = Ranking::sum(inst.query().variables());
        let options = SamplingOptions {
            epsilon: 0.15,
            delta: 0.1,
            seed: 11,
        };
        let phis = [0.1, 0.5, 0.99];
        let batch = sample(&inst, &ranking, &phis, &options).unwrap();
        for (i, &phi) in phis.iter().enumerate() {
            let single = sample_one(&inst, &ranking, phi, &options).unwrap();
            assert_eq!(batch[i].answer, single.answer, "phi {phi}");
            assert_eq!(batch[i].weight, single.weight, "phi {phi}");
        }
    }

    /// Two sampled solves on one plan draw from one index, the instance memo's
    /// (fails if `EncodedDirectAccess::shared` builds afresh on every call), and
    /// each reports one leaf event: `m` answers drawn, one decoded per fraction.
    #[test]
    fn sampled_solves_share_one_index_and_report_one_leaf_event() {
        struct Leaves(std::cell::RefCell<Vec<(SolvePhase, PhaseContext)>>);
        impl SolveTracer for Leaves {
            fn phase_event(&self, phase: SolvePhase, _: std::time::Duration, ctx: &PhaseContext) {
                self.0.borrow_mut().push((phase, *ctx));
            }
        }
        let inst = instance(40);
        let ranking = Ranking::sum(inst.query().variables());
        let plan = Plan::prepare(EncodedInstance::from_instance(&inst).unwrap(), ranking).unwrap();
        let options = SamplingOptions {
            epsilon: 0.15,
            delta: 0.1,
            seed: 3,
        };
        let accuracy = Accuracy::Bounded {
            epsilon: options.epsilon,
            delta: options.delta,
            seed: options.seed,
        };
        let memo = plan.instance().exec_memo();
        assert!(memo.get::<EncodedDirectAccess>().is_none());
        let mut indexes = Vec::new();
        for _ in 0..2 {
            let leaves = Leaves(Default::default());
            plan.solve(&[0.25, 0.5], accuracy, &leaves).unwrap();
            let [(phase, ctx)] = leaves.0.take()[..] else {
                panic!("one event per sampled solve");
            };
            assert_eq!(phase, SolvePhase::Materialize);
            let m = options.sample_count() as u64;
            assert_eq!((ctx.materialized, ctx.keyed), (Some(m), Some(2)));
            indexes.push(memo.get::<EncodedDirectAccess>().expect("memoised"));
        }
        assert!(std::sync::Arc::ptr_eq(&indexes[0], &indexes[1]));
    }

    /// A budget whose draws do not fit in memory is refused, not allocated: a
    /// 5-arm star of 10⁴ rows per arm on one key has 10²⁰ answers, so ε = 10⁻⁸
    /// passes the `m < |Q(D)|` check and asks for ~10¹⁸ bytes of code rows. The plan
    /// then serves a budget that fits (fails, by aborting the test binary, if the
    /// draw buffer is allocated unchecked).
    #[test]
    fn a_budget_past_memory_is_too_large_and_the_plan_keeps_serving() {
        let arms = 5;
        let relations = (1..=arms).map(|i| {
            let mut r = Relation::new(format!("R{i}"), 2);
            for row in 0..10_000i64 {
                r.push(vec![Value::from(0), Value::from(row)]).unwrap();
            }
            r
        });
        let db = Database::from_relations(relations).unwrap();
        let inst = Instance::new(star_query(arms), db).unwrap();
        let ranking = Ranking::sum(vec![qjoin_query::Variable::new("x1")]);
        let plan = Plan::prepare(EncodedInstance::from_instance(&inst).unwrap(), ranking).unwrap();
        let bounded = |epsilon| Accuracy::Bounded {
            epsilon,
            delta: 0.01,
            seed: 1,
        };
        match plan.solve(&[0.5], bounded(1e-8), &NoopTracer) {
            Err(CoreError::TooLarge(what)) => assert!(what.contains("m = "), "{what}"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let served = plan.solve(&[0.5], bounded(0.05), &NoopTracer).unwrap();
        assert_eq!(served[0].total_answers, 10u128.pow(20));
    }

    #[test]
    fn hopeless_regimes_are_refused_with_a_witness() {
        // instance(5): ~8 answers, far below the Hoeffding budget (~1060).
        let inst = instance(5);
        let ranking = Ranking::sum(inst.query().variables());
        let options = SamplingOptions {
            epsilon: 0.05,
            delta: 0.01,
            seed: 0x5eed,
        };
        let err = sample_one(&inst, &ranking, 0.5, &options).unwrap_err();
        match err {
            CoreError::ApproxRefused(witness) => {
                assert!(witness.contains("Hoeffding"), "witness: {witness}");
                assert!(witness.contains("exact solve"), "witness: {witness}");
            }
            other => panic!("expected ApproxRefused, got {other:?}"),
        }
    }
}
