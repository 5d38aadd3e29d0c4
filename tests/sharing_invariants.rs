//! Sharing invariants of the copy-on-write data layer.
//!
//! The trim layer and the self-join/binarization rewrites are required to *share*
//! relation storage they do not modify, and the engine's prepared plans to share the
//! catalog generation's encoded columns — observable as pointer equality on the
//! underlying `Arc`s — and the sharing must never change what the solver computes. These tests pin both halves: pointer identity for
//! untouched relations, and solver results identical to the materialization baseline
//! across every ranking kind.

mod common;

use common::exact;
use proptest::prelude::*;
use quantile_joins::core::trim::{MinMaxTrimmer, SingleAtomSumTrimmer, Trimmer};
use quantile_joins::prelude::*;
use quantile_joins::query::self_join::eliminate_self_joins;
use quantile_joins::ranking::RankPredicate;
use quantile_joins::workload::figures::figure1_instance;
use quantile_joins::workload::random_acyclic::RandomAcyclicConfig;
use quantile_joins::workload::social::SocialConfig;
use std::sync::Arc;

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

fn social_instance(rows: usize, seed: u64) -> Instance {
    SocialConfig {
        rows_per_relation: rows,
        seed,
        ..Default::default()
    }
    .generate()
}

/// Trimming a predicate that touches only one relation must share — not copy —
/// every other relation of the database.
#[test]
fn trim_shares_relations_the_predicate_never_touches() {
    let instance = social_instance(120, 11);
    // `l2` occurs only in Share; Admin and Attend are untouched by the predicate.
    let ranking = Ranking::max(vars(&["l2"]));
    let trimmed = MinMaxTrimmer
        .trim(
            &instance,
            &ranking,
            &RankPredicate::less_than(Weight::num(400.0)),
        )
        .unwrap();
    for name in ["Admin", "Attend"] {
        assert!(
            trimmed
                .database()
                .relation(name)
                .unwrap()
                .shares_tuples_with(instance.database().relation(name).unwrap()),
            "{name} must be shared by pointer, not copied"
        );
    }
    // Share really was filtered (so the trim did real work).
    assert!(
        trimmed.database().relation("Share").unwrap().len()
            < instance.database().relation("Share").unwrap().len()
    );
}

/// The single-atom SUM trimmer shares everything except the covering atom's relation.
#[test]
fn sum_single_atom_trim_shares_the_other_relations() {
    let instance = social_instance(120, 13);
    let ranking = Ranking::sum(vars(&["l2"]));
    let trimmed = SingleAtomSumTrimmer
        .trim(
            &instance,
            &ranking,
            &RankPredicate::less_than(Weight::num(400.0)),
        )
        .unwrap();
    for name in ["Admin", "Attend"] {
        assert!(trimmed
            .database()
            .relation(name)
            .unwrap()
            .shares_tuples_with(instance.database().relation(name).unwrap()));
    }
    assert!(
        trimmed.database().relation("Share").unwrap().len()
            < instance.database().relation("Share").unwrap().len()
    );
}

/// Self-join elimination materializes fresh relation *names*, never fresh tuples:
/// every introduced relation is a storage-sharing view of the original.
#[test]
fn self_join_elimination_shares_all_storage() {
    let r = Relation::from_rows("R", &[&[1, 2], &[2, 3], &[3, 4]]).unwrap();
    let q = JoinQuery::new(vec![
        quantile_joins::query::Atom::from_names("R", &["a", "b"]),
        quantile_joins::query::Atom::from_names("R", &["b", "c"]),
        quantile_joins::query::Atom::from_names("R", &["c", "d"]),
    ]);
    let original = r.clone();
    let instance = Instance::new(q, Database::from_relations([r]).unwrap()).unwrap();
    let rewritten = eliminate_self_joins(&instance).unwrap();
    assert_eq!(rewritten.database().num_relations(), 3);
    for rel in rewritten.database().relations() {
        assert!(
            rel.shares_tuples_with(&original),
            "{} must share the original R's storage",
            rel.name()
        );
    }
}

/// Registering N plans against one catalog database must encode the data exactly
/// once: every relation view of every plan reads the catalog generation's own
/// `Arc<EncodedColumns>`, so the columns are pointer-identical across plans.
#[test]
fn n_plans_share_one_database_allocation() {
    let (_, database) = social_instance(100, 17).into_parts();
    let engine = Engine::new();
    engine.create_database("social", database).unwrap();
    let rankings = [
        Ranking::sum(vars(&["l2", "l3"])),
        Ranking::max(social_network_query().variables()),
        Ranking::min(vars(&["l3"])),
        Ranking::lex(vars(&["l2", "l3"])),
    ];
    for (i, ranking) in rankings.iter().enumerate() {
        engine
            .register(
                &format!("p{i}"),
                "social",
                social_network_query(),
                ranking.clone(),
            )
            .unwrap();
    }
    let catalog_db = Arc::clone(&engine.catalog().get("social").unwrap().encoded);
    for plan in engine.plans() {
        let instance = plan.encoded_instance.as_ref().unwrap();
        assert_eq!(instance.relations().count(), 3);
        for (name, view) in instance.relations() {
            assert!(
                Arc::ptr_eq(view.base(), catalog_db.relation(name).unwrap()),
                "plan {} holds a copy of {name} instead of the catalog's columns",
                plan.name
            );
        }
    }
    for stats in engine.plan_storage_stats() {
        assert_eq!(
            (
                stats.shared_relations,
                stats.owned_relations,
                stats.owned_bytes
            ),
            (3, 0, 0),
            "plan {} owns storage it should share",
            stats.plan
        );
    }
}

/// The figure-1 walkthrough instance: solver results agree with the materialization
/// baseline for every ranking kind (a fixed-point guard for the refactor).
#[test]
fn figure1_results_match_baseline_for_every_ranking() {
    let instance = figure1_instance();
    let all = instance.query().variables();
    let rankings = [
        Ranking::sum(vars(&["x2", "x4"])),
        Ranking::min(all.clone()),
        Ranking::max(all.clone()),
        Ranking::lex(vars(&["x2", "x1"])),
    ];
    for ranking in &rankings {
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let pivoted = exact(&instance, ranking, phi).unwrap();
            let baseline =
                quantile_by_materialization(&instance, ranking, phi, BaselineStrategy::FullSort)
                    .unwrap();
            assert_eq!(pivoted.weight, baseline.weight, "{ranking} at φ={phi}");
            assert_eq!(pivoted.target_index, baseline.target_index);
            assert_eq!(pivoted.total_answers, baseline.total_answers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MIN/MAX trimming on a single-variable ranking shares, by pointer, the relation
    /// of every atom that does not contain the ranked variable.
    #[test]
    fn trims_share_every_unconstrained_relation(seed in 0u64..5000, atoms in 2usize..5) {
        let instance = random_instance(seed, atoms);
        let var = instance.query().variables()[0].clone();
        let ranking = Ranking::max(vec![var.clone()]);
        let trimmed = MinMaxTrimmer
            .trim(&instance, &ranking, &RankPredicate::less_than(Weight::num(2.5)))
            .unwrap();
        for atom in instance.query().atoms() {
            if !atom.contains(&var) {
                let before = instance.database().relation(atom.relation()).unwrap();
                let after = trimmed.database().relation(atom.relation()).unwrap();
                prop_assert!(
                    after.shares_tuples_with(before),
                    "{} does not mention {:?} but was copied",
                    atom.relation(),
                    var
                );
            }
        }
    }

    /// Solver results stay identical to the materialization baseline across ranking
    /// kinds on random workload instances (SUM over a single atom's variables keeps
    /// the instance on the tractable side of the dichotomy).
    #[test]
    fn solver_matches_baseline_across_rankings(
        seed in 0u64..5000,
        atoms in 1usize..4,
        kind in 0usize..4,
        phi_idx in 0usize..5,
    ) {
        let phi = [0.0, 0.25, 0.5, 0.75, 1.0][phi_idx];
        let instance = random_instance(seed, atoms);
        if count_answers(&instance).unwrap() == 0 {
            return Ok(());
        }
        let all = instance.query().variables();
        let ranking = match kind {
            0 => Ranking::sum(instance.query().atom(0).variables().to_vec()),
            1 => Ranking::min(all.clone()),
            2 => Ranking::max(all.clone()),
            _ => Ranking::lex(all.clone()),
        };
        let pivoted = exact(&instance, &ranking, phi).unwrap();
        let baseline =
            quantile_by_materialization(&instance, &ranking, phi, BaselineStrategy::FullSort)
                .unwrap();
        prop_assert_eq!(&pivoted.weight, &baseline.weight);
        prop_assert_eq!(pivoted.target_index, baseline.target_index);
        prop_assert_eq!(pivoted.total_answers, baseline.total_answers);
    }
}
