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

use crate::quantile::{only, target_rank, QuantileResult};
use crate::{CoreError, Result};
use qjoin_exec::EncodedDirectAccess;
use qjoin_query::{Assignment, EncodedInstance, Instance};
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

impl Default for SamplingOptions {
    fn default() -> Self {
        SamplingOptions {
            epsilon: 0.05,
            delta: 0.01,
            seed: 0x5eed,
        }
    }
}

impl SamplingOptions {
    /// The number of samples prescribed by Hoeffding's inequality:
    /// `⌈ln(2/δ) / (2ε²)⌉`.
    pub fn sample_count(&self) -> usize {
        ((2.0 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon)).ceil() as usize
    }
}

/// Computes a randomized `(φ ± ε)`-approximate quantile by uniform sampling.
pub fn quantile_by_sampling(
    instance: &Instance,
    ranking: &Ranking,
    phi: f64,
    options: &SamplingOptions,
) -> Result<QuantileResult> {
    Ok(only(quantile_by_sampling_batch(
        instance,
        ranking,
        &[phi],
        options,
    )?))
}

/// Batched multi-φ sampling: the Hoeffding sample is drawn and sorted **once** (it
/// does not depend on φ), then each fraction picks its rank from the shared sorted
/// sample. Results are pointwise identical to independent single-φ calls with the
/// same seed.
pub fn quantile_by_sampling_batch(
    instance: &Instance,
    ranking: &Ranking,
    phis: &[f64],
    options: &SamplingOptions,
) -> Result<Vec<QuantileResult>> {
    validate(phis, options)?;
    let encoded = EncodedInstance::from_instance(instance)?;
    quantile_by_sampling_batch_encoded(&encoded, ranking, phis, options)
}

/// [`quantile_by_sampling_batch`] over an already-encoded instance (the engine's
/// prepared-plan path).
pub fn quantile_by_sampling_batch_encoded(
    instance: &EncodedInstance,
    ranking: &Ranking,
    phis: &[f64],
    options: &SamplingOptions,
) -> Result<Vec<QuantileResult>> {
    validate(phis, options)?;
    let access = EncodedDirectAccess::new(instance)?;
    sampled_quantiles(access.total(), ranking, phis, options, |rng| {
        Ok(access.sample(rng)?)
    })
}

fn validate(phis: &[f64], options: &SamplingOptions) -> Result<()> {
    for &phi in phis {
        if !(0.0..=1.0).contains(&phi) || phi.is_nan() {
            return Err(CoreError::InvalidPhi(phi));
        }
    }
    if !(options.epsilon > 0.0 && options.epsilon < 1.0) {
        return Err(CoreError::InvalidEpsilon(options.epsilon));
    }
    Ok(())
}

/// The shared sampling core: draws the φ-independent Hoeffding sample, sorts it once
/// by weight, and answers every fraction from the shared order. Refuses outright when
/// the sample budget is no smaller than the answer set.
fn sampled_quantiles(
    total: u128,
    ranking: &Ranking,
    phis: &[f64],
    options: &SamplingOptions,
    mut sample: impl FnMut(&mut StdRng) -> Result<Assignment>,
) -> Result<Vec<QuantileResult>> {
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
        let answer = sample(&mut rng)?;
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
    use crate::quantile::rank_of_weight;
    use qjoin_data::{Database, Relation, Value};
    use qjoin_query::query::path_query;

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
            let result = quantile_by_sampling(&inst, &ranking, phi, &options).unwrap();
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
    fn invalid_parameters_are_rejected() {
        let inst = instance(5);
        let ranking = Ranking::sum(inst.query().variables());
        assert!(matches!(
            quantile_by_sampling(&inst, &ranking, 2.0, &SamplingOptions::default()).unwrap_err(),
            CoreError::InvalidPhi(_)
        ));
        let bad_eps = SamplingOptions {
            epsilon: 0.0,
            ..Default::default()
        };
        assert!(matches!(
            quantile_by_sampling(&inst, &ranking, 0.5, &bad_eps).unwrap_err(),
            CoreError::InvalidEpsilon(_)
        ));
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
        let a = quantile_by_sampling(&inst, &ranking, 0.5, &options).unwrap();
        let b = quantile_by_sampling(&inst, &ranking, 0.5, &options).unwrap();
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
        let batch = quantile_by_sampling_batch(&inst, &ranking, &phis, &options).unwrap();
        for (i, &phi) in phis.iter().enumerate() {
            let single = quantile_by_sampling(&inst, &ranking, phi, &options).unwrap();
            assert_eq!(batch[i].answer, single.answer, "phi {phi}");
            assert_eq!(batch[i].weight, single.weight, "phi {phi}");
        }
    }

    #[test]
    fn hopeless_regimes_are_refused_with_a_witness() {
        // instance(5): ~8 answers, far below the default Hoeffding budget (~1060).
        let inst = instance(5);
        let ranking = Ranking::sum(inst.query().variables());
        let err =
            quantile_by_sampling(&inst, &ranking, 0.5, &SamplingOptions::default()).unwrap_err();
        match err {
            CoreError::ApproxRefused(witness) => {
                assert!(witness.contains("Hoeffding"), "witness: {witness}");
                assert!(witness.contains("exact solve"), "witness: {witness}");
            }
            other => panic!("expected ApproxRefused, got {other:?}"),
        }
    }
}
