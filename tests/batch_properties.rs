//! Property tests for the batched multi-φ solver: over random acyclic instances, a
//! batched solve must be (a) pointwise identical to independent single-φ `Plan::solve`
//! calls and (b) monotone non-decreasing in φ.

mod common;

use common::{exact, solve};
use proptest::prelude::*;
use quantile_joins::prelude::*;
use quantile_joins::workload::random_acyclic::RandomAcyclicConfig;

fn random_instance(seed: u64, atoms: usize) -> Instance {
    RandomAcyclicConfig {
        atoms,
        max_arity: 3,
        tuples_per_relation: 12,
        domain: 5,
        seed,
    }
    .generate()
}

/// A ranking that is exactly solvable on any acyclic query: MIN / MAX / LEX over all
/// variables, or SUM over the variables of a single atom (tractable by Theorem 5.6).
fn ranking_for(instance: &Instance, kind: usize) -> Ranking {
    let all = instance.query().variables();
    match kind {
        0 => Ranking::max(all),
        1 => Ranking::min(all),
        2 => Ranking::lex(all),
        _ => Ranking::sum(
            instance
                .query()
                .atom(0)
                .variable_set()
                .into_iter()
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched multi-φ output equals k independent single-φ solves, pointwise.
    #[test]
    fn batched_is_identical_to_independent_solves(
        seed in 0u64..5000,
        atoms in 1usize..4,
        kind in 0usize..4,
        phi_lo in 0.0f64..0.5,
        phi_hi in 0.5f64..1.0,
    ) {
        let instance = random_instance(seed, atoms);
        if count_answers(&instance).unwrap() == 0 {
            return Ok(());
        }
        let ranking = ranking_for(&instance, kind);
        let phis = [0.0, phi_lo, 0.5, phi_hi, 1.0];
        let batched = solve(&instance, &ranking, &phis, Accuracy::Exact).unwrap();
        prop_assert_eq!(batched.len(), phis.len());
        for (phi, b) in phis.iter().zip(&batched) {
            let single = exact(&instance, &ranking, *phi).unwrap();
            prop_assert_eq!(&b.weight, &single.weight, "phi {}", phi);
            prop_assert_eq!(&b.answer, &single.answer, "phi {}", phi);
            prop_assert_eq!(b.target_index, single.target_index, "phi {}", phi);
            prop_assert_eq!(b.total_answers, single.total_answers, "phi {}", phi);
            prop_assert_eq!(b.iterations, single.iterations, "phi {}", phi);
        }
    }

    /// For sorted φ inputs the returned weights are monotone non-decreasing, and each
    /// result is a genuine φ-quantile of the answer multiset.
    #[test]
    fn batched_is_monotone_and_valid(
        seed in 0u64..5000,
        atoms in 1usize..4,
        kind in 0usize..4,
    ) {
        let instance = random_instance(seed, atoms);
        if count_answers(&instance).unwrap() == 0 {
            return Ok(());
        }
        let ranking = ranking_for(&instance, kind);
        let phis = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let batched = solve(&instance, &ranking, &phis, Accuracy::Exact).unwrap();
        for (prev, next) in batched.iter().zip(batched.iter().skip(1)) {
            prop_assert!(prev.weight <= next.weight, "weights must be monotone in φ");
            prop_assert!(prev.target_index <= next.target_index);
        }
        for result in &batched {
            let (below, equal) = quantile_joins::core::quantile::rank_of_weight(
                &instance, &ranking, &result.weight,
            )
            .unwrap();
            prop_assert!(
                result.target_index >= below && result.target_index < below + equal,
                "target {} outside window [{}, {})",
                result.target_index,
                below,
                below + equal
            );
        }
    }
}
