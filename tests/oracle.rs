//! Whole solves against the brute-force oracle of `tests/common`, at 1 and 4
//! threads: every route (exact single and batch, the engine, the ε-lossy and the
//! sampled approximations) over tie-heavy rankings of every aggregate, and the
//! partial-SUM dichotomy (Theorem 5.6) as an executable theorem over random acyclic
//! queries and random SUM variable sets.
//!
//! Each suite counts the cases of every arm it has and fails if one never ran.
//! Weights are small integers or 2.5, so every SUM is exact in `f64` and the fold
//! order cannot move a tie.
//!
//! Every exact, batch and ε solve is a `Plan::solve` — the route the engine
//! serves — run twice on one plan, cold and then with the instance's exec memo
//! warm, each under a [`BoundChecker`], which holds it to the paper's cost bounds
//! from the phase events the driver emits.
//!
//! Mutations that fail here: reading a weight function's `-0.0` as a weight of its
//! own (MIN/MAX over `tie_heavy_ranking` domain 1), LEX components written in
//! reverse order by the encoded weight fold, and a GYO ear test that ignores a
//! variable an atom repeats (`shaped_instance` shape 4). The bound checker catches a
//! join group's pivot message taken from its first row instead of its weighted
//! median (alone: the answers stay right). On the adjacent-pair SUM route the
//! brute force catches a window count that reads B's prefix one member past a
//! slice, or an A row's group read through another edge's links; the checker
//! catches an A row's first member taken as its median (not a ¼-pivot round) and
//! a third scan of A's rows per round.

mod common;

use common::{prepare, solve, Oracle};
use quantile_joins::core::pivot::pivot_quality;
use quantile_joins::core::{PhaseContext, SolvePhase, SolveTracer};
use quantile_joins::par::{with_pool, Pool};
use quantile_joins::prelude::*;
use quantile_joins::query::{acyclicity::gyo_join_tree, binary::binarize_encoded};
use quantile_joins::workload::random_acyclic::{
    random_acyclic_instance, shaped_instance, tie_heavy_ranking, RandomAcyclicConfig,
};
use quantile_joins::CoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The fractions every solve is asked for: both ends, and 0.9, where a MIN over
/// weights of both zero signs once went wrong.
const PHIS: [f64; 5] = [0.0, 0.25, 0.5, 0.9, 1.0];

/// ε of the deterministic approximation, spent with
/// `Plan::guaranteed_per_trim_epsilon`.
const EPSILON: f64 = 0.1;

/// The sampler's budget is m = ⌈ln(2/δ) / 2ε²⌉ = 81 answers, so the instances
/// below fall on both sides of it.
const SAMPLING: SamplingOptions = SamplingOptions {
    epsilon: 0.3,
    delta: 1e-6,
    seed: 7,
};

/// How many cases each arm checked.
#[derive(Default)]
struct Arms(BTreeMap<&'static str, usize>);

impl Arms {
    fn hit(&mut self, arm: &'static str) {
        *self.0.entry(arm).or_default() += 1;
    }
}

/// What a trim round's event reports: `(round, candidates, n_lt, n_eq, n_gt,
/// view_rows)`.
type Round = [Option<u64>; 6];

/// The rounds and trim sizes a route is held to.
enum Route {
    /// Adjacent-pair SUM and ε solves pivot. Every round is a c-pivot round,
    /// max(n_lt, n_gt) ≤ (1 − c)·candidates, and the rounds on any path number at
    /// most ⌈log_{1/(1−c)}(|Q(D)| / threshold)⌉ + 1. A round reports at most
    /// `view_rows` rows.
    Pivot { c: f64, view_rows: u64 },
    /// MIN/MAX/LEX and single-atom SUM solves search the weight domain: at most
    /// `rounds` rounds on any path.
    Search { rounds: u64 },
}

/// The paper's cost bounds, read off one solve's phase events (no production
/// hook):
///
/// * an exact SUM an adjacent pair `(A, B)` covers counts windows of one context:
///   every round is a ¼-pivot round (the weighted median of the A rows' weighted
///   medians), and its two trims scan A's rows once each, so a round reports at
///   most `2·|A|` rows as its `view_rows`;
/// * an ε solve pivots with Algorithm 2 over a binarized rewrite, so `c` is the
///   smaller [`pivot_quality`] of the query's GYO tree and of its binarization
///   (its sketch sizes, Lemma 6.3, are not checked here);
/// * a MIN/MAX/LEX solve, and an exact SUM one atom covers, do not pivot: their
///   rounds halve each weight component's candidates, so they take at most
///   Σᵢ (⌈log₂ Kᵢ⌉ + 1) rounds with `Kᵢ` the distinct weights the database gives
///   component `i` (one component of all weighted variables' weights for MIN/MAX,
///   of the covering atom's row sums for SUM).
///
/// Every leaf of every route walks at most `threshold` answers. The checker keeps
/// the rounds, so a memo-warm solve can be held to a fresh one's.
struct BoundChecker {
    route: Route,
    threshold: u128,
    what: String,
    total: RefCell<u128>,
    rounds: RefCell<Vec<Round>>,
}

/// `⌈log₂ len⌉`.
fn levels(len: usize) -> u32 {
    len.max(1).next_power_of_two().trailing_zeros()
}

impl BoundChecker {
    fn new(instance: &Instance, ranking: &Ranking, accuracy: Accuracy, what: &str) -> BoundChecker {
        let query = instance.query();
        let tuples = |atom: usize| {
            let relation = instance.database().relation(query.atom(atom).relation());
            relation.expect("every atom has a relation").tuples()
        };
        let search = |components: Vec<usize>| Route::Search {
            rounds: (components.into_iter())
                .map(|k| u64::from(levels(k)) + 1)
                .sum(),
        };
        let weighted = ranking.weighted_vars();
        let route = match (ranking.kind(), accuracy) {
            (AggregateKind::Sum, Accuracy::Exact) => match classify_partial_sum(query, weighted) {
                SumClassification::TractableAdjacentPair { atoms: (a, _) } => Route::Pivot {
                    c: 0.25,
                    view_rows: 2 * tuples(a).len() as u64,
                },
                SumClassification::TractableSingleAtom { atom } => {
                    // The covering atom's row sums: every bound weighted variable
                    // in the ranking's order, from +0.0.
                    let atom_of = query.atom(atom);
                    let bound = (weighted.iter()).filter(|v| query.contains_variable(v));
                    let at: Vec<(&Variable, usize)> =
                        bound.map(|v| (v, atom_of.positions_of(v)[0])).collect();
                    let sum = |tuple: &Tuple| {
                        let weight = |(v, p): &(&Variable, usize)| {
                            ranking.var_weight(v, &tuple.values()[*p])
                        };
                        at.iter().map(weight).fold(0.0, |acc, w| acc + w)
                    };
                    let sums: BTreeSet<u64> =
                        tuples(atom).iter().map(|t| sum(t).to_bits()).collect();
                    search(vec![sums.len()])
                }
                other => panic!("{what}: an exact solve of {other:?}"),
            },
            (AggregateKind::Sum, _) => {
                let tree = gyo_join_tree(query).expect("an acyclic query");
                let encoded = EncodedInstance::from_instance(instance).expect("encodes");
                let binarized = binarize_encoded(&encoded).expect("an acyclic query binarizes");
                Route::Pivot {
                    c: pivot_quality(&tree).min(pivot_quality(&binarized.tree)),
                    view_rows: u64::MAX,
                }
            }
            (kind, _) => {
                let weights = |var: &Variable| -> BTreeSet<u64> {
                    let mut distinct = BTreeSet::new();
                    for atom in query.atoms().iter().filter(|atom| atom.contains(var)) {
                        let at = atom.positions_of(var)[0];
                        let relation = instance.database().relation(atom.relation()).unwrap();
                        for tuple in relation.tuples() {
                            distinct.insert(ranking.var_weight(var, &tuple.values()[at]).to_bits());
                        }
                    }
                    distinct
                };
                let components: Vec<usize> = if kind == AggregateKind::Lex {
                    let first =
                        |i: usize| weighted.iter().position(|v| *v == weighted[i]) == Some(i);
                    (0..weighted.len())
                        .map(|i| {
                            if first(i) {
                                weights(&weighted[i]).len()
                            } else {
                                1
                            }
                        })
                        .collect()
                } else {
                    vec![weighted
                        .iter()
                        .flat_map(weights)
                        .collect::<BTreeSet<u64>>()
                        .len()]
                };
                search(components)
            }
        };
        BoundChecker {
            route,
            threshold: instance.database_size().max(1) as u128,
            what: what.to_string(),
            total: RefCell::new(0),
            rounds: RefCell::default(),
        }
    }

    /// The rounds on the deepest path: the largest round index plus one.
    fn depth(&self) -> u64 {
        let rounds = self.rounds.borrow();
        rounds
            .iter()
            .map(|round| round[0].unwrap() + 1)
            .max()
            .unwrap_or(0)
    }

    fn assert_rounds_bounded(&self) {
        let bound = match self.route {
            Route::Pivot { c, .. } => {
                let ratio = *self.total.borrow() as f64 / self.threshold as f64;
                (ratio.ln() / (1.0 / (1.0 - c)).ln()).ceil().max(0.0) as u64 + 1
            }
            Route::Search { rounds } => rounds,
        };
        let depth = self.depth();
        assert!(depth <= bound, "{}: {depth} rounds > {bound}", self.what);
    }
}

impl SolveTracer for BoundChecker {
    fn phase_event(&self, phase: SolvePhase, _: Duration, ctx: &PhaseContext) {
        match phase {
            SolvePhase::Prepare => *self.total.borrow_mut() = ctx.candidates.unwrap() as u128,
            SolvePhase::TrimRound => {
                let (candidates, n_lt, n_gt) = (ctx.candidates, ctx.n_lt, ctx.n_gt);
                if let Route::Pivot { c, view_rows } = self.route {
                    let larger = n_lt.unwrap().max(n_gt.unwrap()) as f64;
                    let allowed = (1.0 - c) * candidates.unwrap() as f64;
                    assert!(
                        larger <= allowed,
                        "{}: not a {c}-pivot round: {ctx:?}",
                        self.what
                    );
                    let rows = ctx.view_rows.unwrap();
                    assert!(
                        rows <= view_rows,
                        "{}: {rows} view rows > {view_rows}: {ctx:?}",
                        self.what
                    );
                }
                let round = [ctx.round, candidates, n_lt, ctx.n_eq, n_gt, ctx.view_rows];
                self.rounds.borrow_mut().push(round);
            }
            SolvePhase::Materialize => {
                let walked = ctx.materialized.unwrap() as u128;
                assert!(
                    walked <= self.threshold,
                    "{}: a leaf of {walked} answers",
                    self.what
                );
            }
            SolvePhase::PivotScan => {}
        }
    }
}

/// Solves `phis` on one freshly prepared plan of `instance`, cold and then
/// memo-warm, each under a [`BoundChecker`]. Both solves stay inside the bounds,
/// the warm one repeats the cold one's rounds (`n_lt`/`n_eq`/`n_gt` and
/// `view_rows` included) and answers, and the cold results are returned.
fn checked_solve(
    instance: &Instance,
    ranking: &Ranking,
    phis: &[f64],
    accuracy: Accuracy,
    what: &str,
) -> Vec<QuantileResult> {
    let plan = prepare(instance, ranking).unwrap();
    let (cold, warm) = (
        BoundChecker::new(instance, ranking, accuracy, what),
        BoundChecker::new(instance, ranking, accuracy, what),
    );
    let results = plan.solve(phis, accuracy, &cold).unwrap();
    let again = plan.solve(phis, accuracy, &warm).unwrap();
    for checker in [&cold, &warm] {
        checker.assert_rounds_bounded();
    }
    assert_eq!(
        *cold.rounds.borrow(),
        *warm.rounds.borrow(),
        "{what}: warm rounds"
    );
    let print = |r: &QuantileResult| format!("{:?} {:?} {}", r.answer, r.weight, r.iterations);
    let prints = |results: &[QuantileResult]| results.iter().map(print).collect::<Vec<_>>();
    assert_eq!(prints(&results), prints(&again), "{what}: warm answers");
    results
}

/// Runs a suite at 1 and at 4 threads and fails when any of `arms` never ran.
fn at_both_thread_counts(suite: impl Fn(usize) -> Arms, arms: &[&str]) {
    for threads in [1, 4] {
        let Arms(counted) = with_pool(&Pool::new(threads), || suite(threads));
        for arm in arms {
            let ran = counted.get(arm).copied().unwrap_or(0);
            assert!(ran > 0, "arm `{arm}` never ran at T={threads}: {counted:?}");
        }
    }
}

/// The exact single and batch solves, each cold and memo-warm under a
/// [`BoundChecker`], against the oracle.
fn assert_exact_routes(
    instance: &Instance,
    ranking: &Ranking,
    oracle: &Oracle,
    what: &str,
    arms: &mut Arms,
) {
    for phi in PHIS {
        let what = format!("{what} single φ={phi}");
        let checked = checked_solve(instance, ranking, &[phi], Accuracy::Exact, &what);
        oracle.assert_exact(phi, &checked[0], &what);
    }
    arms.hit("exact single");
    let checked = checked_solve(instance, ranking, &PHIS, Accuracy::Exact, what);
    for (phi, result) in PHIS.iter().zip(&checked) {
        oracle.assert_exact(*phi, result, &format!("{what} batch φ={phi}"));
    }
    arms.hit("exact batch");
}

/// An intractable SUM: the exact route refuses with a witness.
fn assert_refused(instance: &Instance, ranking: &Ranking, what: &str, arms: &mut Arms) {
    let refused = solve(instance, ranking, &[0.5], Accuracy::Exact).unwrap_err();
    assert!(
        matches!(refused, CoreError::IntractableSum(_)),
        "{what}: {refused:?}"
    );
    arms.hit("intractable refused");
}

/// The ε route: every target within ε·N under the guaranteed budget.
fn assert_eps_route(
    instance: &Instance,
    ranking: &Ranking,
    oracle: &Oracle,
    what: &str,
    arms: &mut Arms,
) {
    let plan = prepare(instance, ranking).unwrap();
    let epsilon = plan.guaranteed_per_trim_epsilon(EPSILON).unwrap();
    for phi in PHIS {
        let what = format!("{what} ε φ={phi}");
        let accuracy = Accuracy::Approximate { epsilon };
        let checked = checked_solve(instance, ranking, &[phi], accuracy, &what);
        oracle.assert_within(phi, EPSILON, &checked[0], &what);
    }
    arms.hit("ε");
}

/// Every route one ranking admits, against the oracle. `database` names the
/// instance's database in `engine`.
fn assert_every_route(
    engine: &Engine,
    database: &str,
    instance: &Instance,
    ranking: &Ranking,
    what: &str,
    arms: &mut Arms,
) {
    let oracle = Oracle::new(instance, ranking);
    if oracle.total() == 0 {
        return;
    }
    let sum = ranking.kind() == AggregateKind::Sum;
    if sum && !classify_partial_sum(instance.query(), ranking.weighted_vars()).is_tractable() {
        assert_refused(instance, ranking, what, arms);
    } else {
        assert_exact_routes(instance, ranking, &oracle, what, arms);
        let plan = format!("plan{}", engine.plans().len());
        let query = instance.query().clone();
        engine
            .register(&plan, database, query, ranking.clone())
            .unwrap();
        let served = engine.quantile_batch_with(&plan, &PHIS, Accuracy::Exact);
        for (phi, answer) in PHIS.iter().zip(served.unwrap()) {
            oracle.assert_exact(*phi, &answer.result, &format!("{what} engine φ={phi}"));
        }
        arms.hit("engine");
    }
    if sum {
        assert_eps_route(instance, ranking, &oracle, what, arms);
    }
    let refuses = SAMPLING.sample_count() as u128 >= oracle.total();
    let SamplingOptions {
        epsilon,
        delta,
        seed,
    } = SAMPLING;
    let sampling = Accuracy::Bounded {
        epsilon,
        delta,
        seed,
    };
    match solve(instance, ranking, &PHIS, sampling) {
        Ok(sampled) => {
            assert!(!refuses, "{what}: sampled although m ≥ N");
            for (phi, result) in PHIS.iter().zip(&sampled) {
                let what = format!("{what} sampled φ={phi}");
                oracle.assert_within(*phi, SAMPLING.epsilon, result, &what);
            }
            arms.hit("sampled answered");
        }
        Err(CoreError::ApproxRefused(_)) if refuses => arms.hit("sampled refused"),
        Err(other) => panic!("{what}: sampling failed with {other:?}"),
    }
}

/// `shaped_instance` shapes 0–6, larger random acyclic instances (the sampled
/// route answers only past 81 answers) and a 2-path with join groups of about 80,
/// under `tie_heavy_ranking` of every aggregate over the weight domains
/// {0, 1, 2, 3, 9}, and under full SUM.
fn whole_solves(threads: usize) -> Arms {
    let engine = Engine::with_config(EngineConfig {
        threads: Some(threads),
        flight_recorder_capacity: 0,
        ..EngineConfig::default()
    });
    let shaped = (0..=6).flat_map(|shape| (0..6).map(move |seed| shaped_instance(shape, seed)));
    let larger = (0..6).map(|seed| {
        RandomAcyclicConfig {
            atoms: 2 + seed as usize % 2,
            max_arity: 2,
            tuples_per_relation: 24,
            domain: 4,
            seed,
        }
        .generate()
    });
    // A 2-path whose join groups hold about 80 tuples each (the others stay under
    // 16): a SUM round's dyadic cover spans up to seven levels, and MIN/MAX/LEX
    // search about 160 candidate weights per component.
    let wide = PathConfig {
        atoms: 2,
        tuples_per_relation: 160,
        join_domain: 2,
        weight_range: 1000,
        skew: 0.0,
        seed: 5,
    }
    .generate();
    let largest_group = (wide.database().relation("R2").unwrap().tuples().iter())
        .fold(BTreeMap::<&Value, usize>::new(), |mut groups, tuple| {
            *groups.entry(&tuple.values()[0]).or_default() += 1;
            groups
        })
        .into_values()
        .max();
    assert!(largest_group > Some(16), "{largest_group:?}");
    let mut arms = Arms::default();
    for (i, instance) in shaped.chain(larger).chain([wide]).enumerate() {
        let database = format!("db{i}");
        let data = instance.shared_database().clone();
        engine.create_database(&database, data).unwrap();
        let kinds = [
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Lex,
            AggregateKind::Sum,
        ];
        let tie_heavy = kinds.into_iter().flat_map(|kind| {
            [0, 1, 2, 3, 9].map(|domain| (tie_heavy_ranking(&instance, kind, domain), domain))
        });
        // Full SUM on every variable: the intractable arm, whenever the query has one.
        let full_sum = (Ranking::sum(instance.query().variables()), 9);
        for (ranking, domain) in tie_heavy.chain([full_sum]) {
            let what = format!("instance {i} {ranking} domain {domain} T={threads}");
            assert_every_route(&engine, &database, &instance, &ranking, &what, &mut arms);
        }
    }
    generated_exact_solves(threads, &mut arms);
    arms
}

/// SUM over `weighted`, each variable weighed like `tie_heavy_ranking` weighs its
/// domain: 2.5 for all (0), the value mod 2 or mod 3 (2, 3), the value (else).
fn sum_ranking(weighted: Vec<Variable>, domain: usize) -> Ranking {
    let weight_fn = match domain {
        0 => WeightFn::Constant(2.5),
        2 | 3 => {
            let modulus = domain as i64;
            WeightFn::custom(move |v| v.as_f64().map_or(0.0, |v| (v as i64 % modulus) as f64))
        }
        _ => WeightFn::Identity,
    };
    (weighted.iter()).fold(Ranking::sum(weighted.clone()), |ranking, var| {
        ranking.with_weight_fn(var.clone(), weight_fn.clone())
    })
}

/// SUM variable sets of `instance` that one atom or two adjacent atoms cover: a
/// random atom's variables with its first listed twice, and per edge of the GYO
/// tree a variable only the child binds, one only the parent binds and (when there
/// is one) a variable they share, so μ sends a weight of the listed order to each.
fn covered_sums(instance: &Instance, rng: &mut StdRng) -> Vec<Vec<Variable>> {
    let query = instance.query();
    let tree = gyo_join_tree(query).expect("an acyclic query");
    let atom = rng.random_range(0..query.num_atoms());
    let mut own: Vec<Variable> = query.atom(atom).variable_set().into_iter().collect();
    own.push(own[0].clone());
    let mut sets = vec![own];
    for child in 0..tree.num_nodes() {
        let Some(parent) = tree.node(child).parent else {
            continue;
        };
        let [up, down] =
            [parent, child].map(|n| query.atom(tree.node(n).atom_index).variable_set());
        let alone =
            |x: &BTreeSet<Variable>, y: &BTreeSet<Variable>| x.difference(y).next().cloned();
        if let (Some(below), Some(above)) = (alone(&down, &up), alone(&up, &down)) {
            let mut pair = vec![below, above];
            pair.extend(up.intersection(&down).next().cloned());
            sets.push(pair);
        }
    }
    sets
}

/// `random_acyclic_instance`s (self-joins, repeated variables, empty joins) under
/// MIN/MAX/LEX and under SUMs one atom or an adjacent pair covers ([`covered_sums`]):
/// the exact single and batch solves, against the oracle and under the bound
/// checker. On these shapes alone, fails if a pair count reads a B group's prefix
/// one member too far (the checker sees a round that is no ¼-pivot round) or an A
/// row's group through another child's links (an index past B's groups).
fn generated_exact_solves(threads: usize, arms: &mut Arms) {
    let mut rng = StdRng::seed_from_u64(0x5a17);
    for i in 0..160 {
        let instance = random_acyclic_instance(&mut rng);
        let domain: usize = [0, 2, 3, 9][rng.random_range(0..4usize)];
        let kinds = [AggregateKind::Min, AggregateKind::Max, AggregateKind::Lex];
        let searched = kinds.map(|kind| tie_heavy_ranking(&instance, kind, domain));
        let summed = covered_sums(&instance, &mut rng).into_iter();
        for ranking in searched
            .into_iter()
            .chain(summed.map(|set| sum_ranking(set, domain)))
        {
            let oracle = Oracle::new(&instance, &ranking);
            if oracle.total() == 0 {
                continue;
            }
            let what = format!("generated {i} {ranking} domain {domain} T={threads}");
            assert_exact_routes(&instance, &ranking, &oracle, &what, arms);
            if ranking.kind() == AggregateKind::Sum {
                let query = instance.query();
                arms.hit(match classify_partial_sum(query, ranking.weighted_vars()) {
                    SumClassification::TractableSingleAtom { .. } => "single-atom SUM",
                    SumClassification::TractableAdjacentPair { .. } => "pair SUM",
                    other => panic!("{what}: {other:?}"),
                });
            }
            if instance.query().has_self_joins() {
                arms.hit("self-join");
            }
        }
    }
}

#[test]
fn every_route_matches_the_brute_force() {
    let arms = [
        "exact single",
        "exact batch",
        "engine",
        "ε",
        "sampled answered",
        "sampled refused",
        "intractable refused",
        "single-atom SUM",
        "pair SUM",
        "self-join",
    ];
    at_both_thread_counts(whole_solves, &arms);
}

/// Random acyclic queries of 1–4 atoms and 3- and 4-paths, each under random
/// non-empty SUM variable sets: a tractable set solves exactly, an intractable one
/// is refused and answered within ε by the deterministic approximation.
fn dichotomy(threads: usize) -> Arms {
    let random = (0..40).map(|seed| {
        RandomAcyclicConfig {
            atoms: 1 + seed as usize % 4,
            max_arity: 3,
            tuples_per_relation: 6,
            domain: 3,
            seed,
        }
        .generate()
    });
    let paths = (0..8).map(|seed| {
        PathConfig {
            atoms: 3 + seed as usize % 2,
            tuples_per_relation: 6,
            join_domain: 3,
            weight_range: 4,
            skew: 0.0,
            seed,
        }
        .generate()
    });
    let mut rng = StdRng::seed_from_u64(56);
    let mut arms = Arms::default();
    for (i, instance) in random.chain(paths).enumerate() {
        let variables = instance.query().variables();
        for _ in 0..4 {
            let weighted: Vec<Variable> = loop {
                let drawn = variables.iter().filter(|_| rng.random_bool(0.5));
                let drawn: Vec<Variable> = drawn.cloned().collect();
                if !drawn.is_empty() {
                    break drawn;
                }
            };
            let ranking = Ranking::sum(weighted);
            let oracle = Oracle::new(&instance, &ranking);
            if oracle.total() == 0 {
                continue;
            }
            let what = format!("instance {i} {ranking} T={threads}");
            let classification = classify_partial_sum(instance.query(), ranking.weighted_vars());
            arms.hit(match classification {
                SumClassification::TractableSingleAtom { .. } => "SingleAtom",
                SumClassification::TractableAdjacentPair { .. } => "AdjacentPair",
                SumClassification::IntractableIndependentSet(_) => "IndependentSet",
                SumClassification::IntractableChordlessPath(_) => "ChordlessPath",
                _ => panic!("{what}: {classification:?} on an acyclic query of ≤ 4 atoms"),
            });
            if classification.is_tractable() {
                let checked = checked_solve(&instance, &ranking, &PHIS, Accuracy::Exact, &what);
                for (phi, result) in PHIS.iter().zip(&checked) {
                    oracle.assert_exact(*phi, result, &format!("{what} φ={phi}"));
                }
            } else {
                assert_refused(&instance, &ranking, &what, &mut arms);
                assert_eps_route(&instance, &ranking, &oracle, &what, &mut arms);
            }
        }
    }
    arms
}

#[test]
fn the_dichotomy_decides_which_sums_solve_exactly() {
    let arms = [
        "SingleAtom",
        "AdjacentPair",
        "IndependentSet",
        "ChordlessPath",
        "intractable refused",
        "ε",
    ];
    at_both_thread_counts(dichotomy, &arms);
}

/// NaN (of both signs), ±∞ and −0.0 weights through every ranking kind on the
/// exact route and through ε on SUM, at 1 and 4 threads: each solve is refused
/// with a typed error or answers as the brute force's `total_cmp` order says.
/// MIN/MAX/LEX order a NaN as `Weight` does; an exact or ε SUM refuses a
/// non-finite weight of a value a weighted variable takes
/// (`CoreError::UnsupportedRanking`) before it trims by it, and answers when only
/// `−0.0` is among them or when it only walks its leaf.
/// Nothing panics. Fails if the weight fold takes MIN/MAX with `f64::min`/`max`,
/// which skip a NaN.
#[test]
fn bad_weights_are_refused_or_ordered_by_total_cmp() {
    let bad = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    let mixed = move |v: &Value| {
        let v = v.as_f64().map_or(0, |v| v as i64);
        if v % 3 == 0 {
            bad[(v / 3).rem_euclid(5) as usize]
        } else {
            v as f64
        }
    };
    let weight_fns = [
        WeightFn::custom(mixed),
        WeightFn::Constant(f64::NAN),
        WeightFn::custom(|v| {
            if v.as_f64().is_some_and(|v| v as i64 % 2 == 0) {
                -0.0
            } else {
                f64::INFINITY
            }
        }),
        WeightFn::custom(|v| {
            if v.as_f64().is_some_and(|v| v as i64 % 2 == 0) {
                -0.0
            } else {
                1.0
            }
        }),
    ];
    let suite = |threads: usize| {
        let mut arms = Arms::default();
        let shaped = (0..=6).flat_map(|shape| (0..3).map(move |seed| shaped_instance(shape, seed)));
        for (i, instance) in shaped.enumerate() {
            let kinds = [
                AggregateKind::Min,
                AggregateKind::Max,
                AggregateKind::Lex,
                AggregateKind::Sum,
            ];
            for kind in kinds {
                for (f, weight_fn) in weight_fns.iter().enumerate() {
                    let plain = tie_heavy_ranking(&instance, kind, 9);
                    let ranking = (plain.weighted_vars().iter()).fold(plain.clone(), |r, var| {
                        r.with_weight_fn(var.clone(), weight_fn.clone())
                    });
                    let oracle = Oracle::new(&instance, &ranking);
                    if oracle.total() == 0 {
                        continue;
                    }
                    let what = format!("instance {i} {ranking} weights {f} T={threads}");
                    let sum = kind == AggregateKind::Sum;
                    match solve(&instance, &ranking, &PHIS, Accuracy::Exact) {
                        Ok(results) => {
                            for (phi, result) in PHIS.iter().zip(&results) {
                                oracle.assert_exact(*phi, result, &format!("{what} φ={phi}"));
                            }
                            arms.hit(if sum {
                                "SUM answered"
                            } else {
                                "MIN/MAX/LEX answered"
                            });
                        }
                        Err(CoreError::UnsupportedRanking(_) | CoreError::IntractableSum(_))
                            if sum =>
                        {
                            arms.hit("SUM refused")
                        }
                        Err(other) => panic!("{what}: {other:?}"),
                    }
                    if sum {
                        let plan = prepare(&instance, &ranking).unwrap();
                        let epsilon = plan.guaranteed_per_trim_epsilon(EPSILON).unwrap();
                        let accuracy = Accuracy::Approximate { epsilon };
                        match plan.solve(&PHIS, accuracy, &NoopTracer) {
                            Ok(results) => {
                                for (phi, result) in PHIS.iter().zip(&results) {
                                    let what = format!("{what} ε φ={phi}");
                                    oracle.assert_within(*phi, EPSILON, result, &what);
                                }
                                arms.hit("ε answered");
                            }
                            Err(CoreError::UnsupportedRanking(_)) => arms.hit("ε refused"),
                            Err(other) => panic!("{what} ε: {other:?}"),
                        }
                    }
                }
            }
        }
        arms
    };
    let arms = [
        "MIN/MAX/LEX answered",
        "SUM answered",
        "SUM refused",
        "ε answered",
        "ε refused",
    ];
    at_both_thread_counts(suite, &arms);
}
