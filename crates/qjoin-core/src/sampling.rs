//! Randomized ε-approximate quantiles by uniform sampling (Section 3.1).
//!
//! With a direct-access structure over the answers of an acyclic JQ (built in linear
//! time, O(log n) per access), answers can be sampled uniformly; the `φ`-quantile of a
//! sample of `O(ε⁻² log(1/δ))` answers is a `(φ ± ε)`-quantile of the full answer set
//! with probability `1 − δ` (Hoeffding's inequality). This is the randomized baseline
//! against which the paper's *deterministic* approximation (Theorem 6.2) is positioned.
//!
//! The sampler runs on the **encoded** substrate ([`EncodedDirectAccess`] walks
//! dictionary codes over the instance's shared execution context — a sampled request
//! reuses the reduction an earlier solve of the same instance built — and decodes
//! only sampled answers). It enumerates answers in a fixed order and consumes the
//! RNG identically at any thread count, so a seed fully determines the result.
//!
//! When the Hoeffding budget `m` meets or exceeds the answer count — the regime where
//! approximate query processing provably cannot beat exact evaluation (cf. Liu & Wang's
//! AQP hardness results) — the sampler **refuses** with
//! [`CoreError::ApproxRefused`] rather than burning more work than an exact solve;
//! callers should downgrade to an exact or deterministic-ε solve.

use crate::quantile::{target_rank, QuantileResult};
use crate::{CoreError, Result};
use qjoin_exec::EncodedDirectAccess;
use qjoin_query::{Assignment, EncodedInstance};
use qjoin_ranking::Ranking;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The randomized `(φ ± ε)`-approximate quantiles of `phis` (the
/// [`Accuracy::Bounded`](crate::plan::Accuracy::Bounded) route of
/// [`Plan::solve`](crate::plan::Plan::solve), which validates the parameters): the
/// φ-independent Hoeffding sample is drawn and sorted **once**, then every fraction
/// picks its rank from the shared order, so results are pointwise identical to
/// single-φ calls with the same seed. Refuses outright when the sample budget is no
/// smaller than the answer set.
pub(crate) fn sampled_quantiles(
    instance: &EncodedInstance,
    ranking: &Ranking,
    phis: &[f64],
    options: &SamplingOptions,
) -> Result<Vec<QuantileResult>> {
    let access = EncodedDirectAccess::new(instance)?;
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

    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut sampled: Vec<(qjoin_ranking::Weight, Assignment)> = Vec::with_capacity(m);
    for _ in 0..m {
        let answer = access.sample(&mut rng)?;
        sampled.push((ranking.weight_of(&answer), answer));
    }
    sampled.sort_by(|a, b| a.0.cmp(&b.0));

    Ok(phis
        .iter()
        .map(|&phi| {
            let pick = (target_rank(phi, m as u128) as usize).min(m - 1);
            let (weight, answer) = sampled[pick].clone();
            QuantileResult {
                answer,
                weight,
                total_answers: total,
                target_index: target_rank(phi, total),
                iterations: 0,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Accuracy, Plan};
    use crate::quantile::{only, rank_of_weight};
    use crate::trace::NoopTracer;
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::path_query;
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
