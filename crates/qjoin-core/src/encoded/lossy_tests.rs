//! The ε-lossy construction where its sketches actually compress, its windows
//! against the instances they stand for, and the edges of its interface. Every
//! other lossy test in the workspace runs on join groups too small for a bucket to
//! hold two sources, where the construction is exact.

use super::*;
use crate::encoded::approximate_sum_quantile_batch_encoded_traced;
use crate::encoded::tests::answers_of;
use crate::plan::{Accuracy, Plan};
use crate::quantile::{materialized_keyed_answers, only, PivotingOptions, QuantileResult};
use crate::trace::NoopTracer;
use proptest::prelude::*;
use qjoin_data::Value;
use qjoin_exec::encoded::count_answers;
use qjoin_query::Instance;
use qjoin_workload::path::PathConfig;
use qjoin_workload::star::StarConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

const EPSILONS: [f64; 3] = [0.5, 0.25, 0.1];

/// Shapes 0–2 are paths of 2–4 atoms, shape 3 a three-armed star; join domains of
/// 2–4 values. Relation sizes keep `|Q(D)|` near 10⁵, so the answers can be listed,
/// while the join groups the upper tree levels sketch hold hundreds of rows.
/// `tied` draws the weighted values from six integers instead of a thousand;
/// `percent` scales the relation sizes.
fn shaped(shape: usize, domain: usize, tied: bool, seed: u64, percent: usize) -> Instance {
    let weight_range = if tied { 6 } else { 1000 };
    let rows = |base: usize| base * domain * percent / 100;
    match shape {
        0..=2 => PathConfig {
            atoms: shape + 2,
            tuples_per_relation: rows([200, 30, 14][shape]),
            join_domain: domain,
            weight_range,
            skew: 0.0,
            seed,
        }
        .generate(),
        _ => StarConfig {
            arms: 3,
            tuples_per_relation: rows(30),
            center_domain: domain,
            weight_range,
            skew: 0.0,
            seed,
        }
        .generate(),
    }
}

struct Case {
    instance: Instance,
    encoded: EncodedInstance,
    ranking: Ranking,
    /// Every answer as `(weight, values)`, sorted.
    all: Vec<(Weight, Vec<Value>)>,
}

impl Case {
    fn new(instance: Instance) -> Case {
        let ranking = Ranking::sum(instance.query().variables());
        let original = instance.query().variables();
        let mut all = materialized_keyed_answers(&instance, &ranking, &original).unwrap();
        all.sort();
        Case {
            encoded: EncodedInstance::from_instance(&instance).unwrap(),
            instance,
            ranking,
            all,
        }
    }

    fn construction(&self, epsilon: f64) -> Result<LossyConstruction> {
        let weights = CodeWeights::build(self.encoded.dictionary(), &self.ranking);
        LossyConstruction::build(&self.encoded, &self.ranking, epsilon, &weights)
    }

    fn backend(&self, epsilon: f64) -> LossyBackend<'_> {
        LossyBackend::new(&self.encoded, &self.ranking, epsilon)
    }

    fn source(&self) -> Candidates {
        Candidates::Source(self.encoded.clone())
    }

    fn weights(&self) -> Vec<f64> {
        self.all.iter().map(|(w, _)| w.as_num().unwrap()).collect()
    }

    /// How far `result`'s true rank window — [`rank_of_weight`]'s, read off the sorted
    /// answers instead of listing them again — is from the rank it was asked for.
    fn rank_error(&self, result: &QuantileResult) -> u128 {
        let below = self.all.partition_point(|(w, _)| *w < result.weight) as u128;
        let through = self.all.partition_point(|(w, _)| *w <= result.weight) as u128;
        assert!(through > below, "the returned weight belongs to no answer");
        let target = result.target_index;
        below.saturating_sub(target) + target.saturating_sub(through - 1)
    }
}

fn finite(w: f64) -> WeightBound {
    WeightBound::Finite(Weight::num(w))
}

fn window(
    construction: &Arc<LossyConstruction>,
    low: &WeightBound,
    high: &WeightBound,
) -> Candidates {
    let kept = construction.window(low, high).unwrap();
    Candidates::Window(Arc::clone(construction), kept)
}

fn bits(weight: &Weight) -> Vec<u64> {
    match weight {
        Weight::Num(x) => vec![x.to_bits()],
        Weight::Vec(v) => v.iter().map(|x| x.to_bits()).collect(),
    }
}

/// Bounds at the extremes, around the middle, and at random answer weights — on a
/// weight (strictness) and between two.
fn lambdas(weights: &[f64], seed: u64) -> Vec<f64> {
    let n = weights.len();
    let mut picks = vec![
        0,
        n / 50,
        n / 10,
        n / 2,
        n - 1 - n / 10,
        n - 1 - n / 50,
        n - 1,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    picks.extend((0..4).map(|_| rng.random_range(0..n)));
    let on_and_between = |i: usize| [weights[i], weights[i] + 0.5];
    picks.into_iter().flat_map(on_and_between).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (i) a sketch compressed; (ii) windows are sound and injective; (iii) each
    /// single bound loses at most an ε fraction of what it admits, and nothing it
    /// does not; (iv) the unfiltered construction has every answer.
    #[test]
    fn compressing_windows_are_sound_injective_and_lose_at_most_epsilon(
        seed in 0u64..10_000,
        shape in 0usize..4,
        domain in 2usize..5,
        eps_idx in 0usize..3,
        tied in any::<bool>(),
    ) {
        let case = Case::new(shaped(shape, domain, tied, seed, 100));
        let epsilon = EPSILONS[eps_idx];
        let construction = Arc::new(case.construction(epsilon).unwrap());
        let backend = case.backend(epsilon);
        let count = |low: &WeightBound, high: &WeightBound| {
            backend.count(&window(&construction, low, high)).unwrap()
        };
        let total = case.all.len();
        let context = format!("shape {shape} domain {domain} tied {tied} seed {seed} ε={epsilon}");
        // Without compression every root row is one answer; that regime is every other
        // lossy test's, so such a case (a 2-path at ε = 0.1) is discarded.
        if construction.root_sums.len() == total {
            return Ok(());
        }
        prop_assert_eq!(count(&WeightBound::NegInf, &WeightBound::PosInf), total as u128, "{}", context);

        let weights = case.weights();
        let lambdas = lambdas(&weights, seed);
        for &lambda in &lambdas {
            let below = weights.partition_point(|&w| w < lambda) as f64;
            let above = (total - weights.partition_point(|&w| w <= lambda)) as f64;
            let lt = count(&WeightBound::NegInf, &finite(lambda));
            let gt = count(&finite(lambda), &WeightBound::PosInf);
            for (side, kept, exact) in [("<", lt, below), (">", gt, above)] {
                let kept = kept as f64;
                prop_assert!(
                    (1.0 - epsilon) * exact <= kept && kept <= exact,
                    "{}: {} {} keeps {} of {}", context, side, lambda, kept, exact
                );
            }
        }

        let original = case.instance.query().variables();
        for pair in lambdas.chunks(2).take(4) {
            let (low, high) = (pair[0].min(pair[1]) - 40.0, pair[0].max(pair[1]) + 40.0);
            let window = window(&construction, &finite(low), &finite(high));
            let answers = answers_of(&backend, &window, &original);
            prop_assert_eq!(answers.len() as u128, backend.count(&window).unwrap());
            prop_assert!(!answers.is_empty(), "{}: ({}, {}) is empty", context, low, high);
            // Injective into the original's answers, a bag when relations repeat rows:
            // both lists are sorted, so each answer claims the next unclaimed original.
            let mut originals = case.all.iter();
            for answer in &answers {
                let w = answer.0.as_num().unwrap();
                prop_assert!(low < w && w < high, "{}: {} outside ({}, {})", context, w, low, high);
                prop_assert!(
                    originals.any(|original| original == answer),
                    "{}: {:?} is no answer, or is one more often than the original has it", context, answer
                );
            }
        }
    }

    /// (v) whole solves, single and batched: inside ε under the guaranteed budget,
    /// inside the summed window losses when ε is spent directly on every trim (where
    /// the sketches compress most), and bit-identical at 1 and 4 threads.
    #[test]
    fn compressing_solves_keep_epsilon_and_ignore_the_thread_count(
        seed in 0u64..10_000,
        shape in 0usize..4,
        domain in 2usize..5,
        eps_idx in 0usize..3,
        tied in any::<bool>(),
    ) {
        let case = Case::new(shaped(shape, domain, tied, seed, 60));
        let epsilon = EPSILONS[eps_idx];
        let total = case.all.len() as f64;
        let phis = [0.1, 0.5, 0.9];
        // Under the guaranteed budget each trim spends its share of ε; otherwise
        // every trim spends ε itself.
        let solve_all = |guaranteed: bool| -> Vec<QuantileResult> {
            let prepare = |instance| Plan::prepare(instance, case.ranking.clone()).unwrap();
            let fresh = || prepare(EncodedInstance::from_instance(&case.instance).unwrap());
            let epsilon = match guaranteed {
                true => fresh().guaranteed_per_trim_epsilon(epsilon).unwrap(),
                false => epsilon,
            };
            let accuracy = Accuracy::Approximate { epsilon };
            let single = |&phi: &f64| fresh().solve(&[phi], accuracy, &NoopTracer).map(only);
            let mut results: Vec<QuantileResult> = phis.iter().map(single).collect::<Result<_>>().unwrap();
            results.extend(prepare(case.encoded.clone()).solve(&phis, accuracy, &NoopTracer).unwrap());
            results
        };
        for guaranteed in [true, false] {
            let sequential = qjoin_par::with_pool(&qjoin_par::Pool::new(1), || solve_all(guaranteed));
            let parallel = qjoin_par::with_pool(&qjoin_par::Pool::new(4), || solve_all(guaranteed));
            for (at_1, at_4) in sequential.iter().zip(&parallel) {
                let context = format!(
                    "shape {shape} domain {domain} tied {tied} seed {seed} ε={epsilon} guaranteed {guaranteed} rank {}",
                    at_1.target_index
                );
                prop_assert_eq!(&at_1.answer, &at_4.answer, "{}", context);
                prop_assert_eq!(at_1.weight.as_num().map(f64::to_bits), at_4.weight.as_num().map(f64::to_bits));
                prop_assert_eq!(at_1.iterations, at_4.iterations, "{}", context);
                // A round's two windows lose at most 3ε′·|Q(D)| between them.
                let allowed = match guaranteed {
                    true => epsilon,
                    false => 3.0 * epsilon * at_1.iterations as f64,
                };
                let error = case.rank_error(at_1) as f64;
                prop_assert!(error <= allowed * total, "{}: off by {} of {}", context, error, total);
            }
        }
    }
}

/// The lossy backend, keeping every window the driver cuts.
struct Recording<'a> {
    backend: LossyBackend<'a>,
    cut: Mutex<Vec<(WeightBound, WeightBound)>>,
}

impl SolveBackend for Recording<'_> {
    type Inst = Candidates;

    fn count(&self, candidates: &Candidates) -> Result<u128> {
        self.backend.count(candidates)
    }
    fn database_size(&self, candidates: &Candidates) -> usize {
        self.backend.database_size(candidates)
    }
    fn select_pivot(&self, candidates: &Candidates) -> Result<PivotResult> {
        self.backend.select_pivot(candidates)
    }
    fn trim_between(
        &self,
        candidates: &Candidates,
        low: &WeightBound,
        high: &WeightBound,
    ) -> Result<Candidates> {
        self.cut.lock().unwrap().push((low.clone(), high.clone()));
        self.backend.trim_between(candidates, low, high)
    }
    fn leaf_weights(&self, candidates: &Candidates) -> Result<Vec<(Weight, u32)>> {
        self.backend.leaf_weights(candidates)
    }
    fn leaf_band(
        &self,
        candidates: &Candidates,
        original_vars: &[Variable],
        roots: &[u32],
        wanted: &(dyn Fn(&Weight) -> bool + Sync),
    ) -> Result<Vec<(Weight, CodeKey)>> {
        self.backend
            .leaf_band(candidates, original_vars, roots, wanted)
    }
    fn answer_from_key(&self, original_vars: &[Variable], key: &CodeKey) -> Assignment {
        self.backend.answer_from_key(original_vars, key)
    }
}

/// Every window a three-φ solve of `case` cuts, and the degenerate ⊤/⊥/unbounded
/// ones, against its materialized instance — the root view filtered, its context
/// built afresh by `EncodedContext::build`: the same count, the same pivot
/// (assignment, weight bits, `c`, total) and the same leaf weight sequence.
fn assert_windows_match_their_instances(case: &Case, epsilon: f64, context: &str) {
    let recording = Recording {
        backend: case.backend(epsilon),
        cut: Mutex::default(),
    };
    let (options, tracer) = (PivotingOptions::default(), crate::trace::NoopTracer);
    let original = case.instance.query().variables();
    let phis = [0.1, 0.5, 0.9];
    let source = case.source();
    crate::batch::quantile_batch_backend(&recording, &source, &phis, &options, &original, &tracer)
        .unwrap();
    let backend = &recording.backend;
    let construction = Arc::clone(backend.construction.get().expect("the solve trims"));
    let mut windows = recording.cut.into_inner().unwrap();
    assert!(windows.len() >= 2, "{context}: {} windows", windows.len());
    let (bottom, top) = (WeightBound::NegInf, WeightBound::PosInf);
    windows.extend([
        (top.clone(), top.clone()),
        (bottom.clone(), bottom.clone()),
        (bottom, top),
    ]);
    let oracle = &backend.encoded;
    let leaf_bits = |leaf: Vec<(Weight, u32)>| -> Vec<Vec<u64>> {
        leaf.iter().map(|(weight, _)| bits(weight)).collect()
    };
    for (low, high) in &windows {
        let context = format!("{context} window ({low}, {high})");
        let window = window(&construction, low, high);
        let materialized = construction.materialized_window(low, high).unwrap();
        let count = backend.count(&window).unwrap();
        assert_eq!(
            count,
            count_answers(&materialized).unwrap(),
            "{context}: count"
        );
        assert_eq!(
            leaf_bits(backend.leaf_weights(&window).unwrap()),
            leaf_bits(oracle.leaf_weights(&materialized).unwrap()),
            "{context}: leaf weights"
        );
        if count == 0 {
            continue;
        }
        let pivot = backend.select_pivot(&window).unwrap();
        let expected = oracle.select_pivot(&materialized).unwrap();
        assert_eq!(pivot.assignment, expected.assignment, "{context}: pivot");
        assert_eq!(bits(&pivot.weight), bits(&expected.weight), "{context}");
        assert_eq!(pivot.c.to_bits(), expected.c.to_bits(), "{context}: c");
        assert_eq!(pivot.total_answers, expected.total_answers, "{context}");
    }
}

/// `path3_approx`'s shape: three atoms of 200 rows over a join domain of 20,
/// weights below 10⁶, skew 0.2.
fn path3_approx(seed: u64) -> Instance {
    PathConfig {
        atoms: 3,
        tuples_per_relation: 200,
        join_domain: 20,
        weight_range: 1_000_000,
        skew: 0.2,
        seed,
    }
    .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Windows of a construction count, pivot and walk exactly like the instances
    /// they select, at one and four threads. Fails if a window's count sums every
    /// root row, if its pivot is the median of every root row, or if its leaf walks
    /// every root row.
    #[test]
    fn windows_count_pivot_and_walk_like_their_materialized_instances(
        seed in 0u64..10_000,
        shape in 0usize..5,
        domain in 2usize..5,
        eps_idx in 0usize..3,
        tied in any::<bool>(),
    ) {
        let instance = match shape {
            4 => path3_approx(seed),
            _ => shaped(shape, domain, tied, seed, 40),
        };
        let case = Case::new(instance);
        let epsilon = EPSILONS[eps_idx];
        for threads in [1, 4] {
            let context = format!("shape {shape} domain {domain} tied {tied} seed {seed} ε={epsilon} T={threads}");
            qjoin_par::with_pool(&qjoin_par::Pool::new(threads), || {
                assert_windows_match_their_instances(&case, epsilon, &context)
            });
        }
    }
}

/// The benchmark's own instance and per-trim budget (ε = 0.05, guaranteed).
#[test]
fn path3_approx_windows_match_their_materialized_instances() {
    let case = Case::new(path3_approx(2023));
    let plan = Plan::prepare(case.encoded.clone(), case.ranking.clone()).unwrap();
    let epsilon = plan.guaranteed_per_trim_epsilon(0.05).unwrap();
    for threads in [1, 4] {
        qjoin_par::with_pool(&qjoin_par::Pool::new(threads), || {
            assert_windows_match_their_instances(&case, epsilon, &format!("T={threads}"))
        });
    }
}

fn small_case() -> Case {
    Case::new(shaped(1, 2, false, 7, 50))
}

#[test]
fn degenerate_windows_need_no_filter() {
    let case = small_case();
    let construction = Arc::new(case.construction(0.25).unwrap());
    let backend = case.backend(0.25);
    let (bottom, top) = (WeightBound::NegInf, WeightBound::PosInf);
    let median = finite(case.weights()[case.all.len() / 2]);
    for (low, high) in [
        (&top, &top),
        (&bottom, &bottom),
        (&top, &median),
        (&median, &bottom),
    ] {
        assert!(
            construction.window(low, high).unwrap().is_empty(),
            "({low}, {high})"
        );
        let empty = window(&construction, low, high);
        assert_eq!(backend.count(&empty).unwrap(), 0, "({low}, {high})");
    }
    // The unbounded window is every root row of the construction's context.
    let ctx = &construction.scan.ctx;
    let all: Vec<u32> = (0..ctx.node(ctx.root()).rows.len() as u32).collect();
    assert_eq!(construction.window(&bottom, &top).unwrap(), all);
    let everything = window(&construction, &bottom, &top);
    assert_eq!(backend.count(&everything).unwrap(), case.all.len() as u128);
}

#[test]
fn a_finite_bound_must_be_a_scalar() {
    let case = small_case();
    let construction = case.construction(0.25).unwrap();
    let lex = WeightBound::Finite(Weight::Vec(vec![1.0, 2.0]));
    for (low, high) in [(&lex, &WeightBound::PosInf), (&WeightBound::NegInf, &lex)] {
        let refused = construction.window(low, high).unwrap_err();
        assert!(
            matches!(refused, CoreError::UnsupportedPredicate(_)),
            "{refused:?}"
        );
    }
}

#[test]
fn other_rankings_and_epsilons_are_refused_before_anything_is_built() {
    let mut case = small_case();
    for epsilon in [0.0, 1.0, -0.5, f64::NAN] {
        let refused = case.construction(epsilon).err().expect("ε outside (0, 1)");
        assert!(
            matches!(refused, CoreError::InvalidEpsilon(_)),
            "{refused:?}"
        );
    }
    case.ranking = Ranking::max(case.instance.query().variables());
    let refused = case.construction(0.25).err().expect("MAX is not SUM");
    assert!(
        matches!(refused, CoreError::UnsupportedRanking(_)),
        "{refused:?}"
    );
    // The backend refuses the same way, from its first trim.
    let backend = case.backend(0.25);
    let refused = backend.trim_between(&case.source(), &WeightBound::NegInf, &finite(5.0));
    let refused = refused.err().expect("MAX is not SUM");
    assert!(matches!(refused, CoreError::UnsupportedRanking(_)));
}

/// The backend's construction is of the instance its first trim named; a trim of
/// any other instance — a window, say — would be a window of the wrong database,
/// and is refused.
#[test]
fn a_trim_of_another_instance_is_refused() {
    let case = small_case();
    let backend = case.backend(0.25);
    let (low, high) = (
        WeightBound::NegInf,
        finite(case.weights()[case.all.len() / 2]),
    );
    let trimmed = backend.trim_between(&case.source(), &low, &high).unwrap();
    assert!(backend.count(&trimmed).unwrap() > 0);
    // A clone is the same instance, so the same window.
    let again = backend.trim_between(&case.source(), &low, &high).unwrap();
    assert_eq!(
        backend.count(&again).unwrap(),
        backend.count(&trimmed).unwrap()
    );
    let other = EncodedInstance::from_instance(&case.instance).unwrap();
    for other in [&trimmed, &Candidates::Source(other)] {
        let refused = backend
            .trim_between(other, &low, &high)
            .err()
            .expect("a window of another instance");
        assert!(matches!(refused, CoreError::Internal(_)), "{refused:?}");
    }
}

/// A solve that never pivots never builds the construction.
#[test]
fn a_zero_round_solve_builds_nothing() {
    let case = Case::new(shaped(0, 2, false, 3, 10));
    let backend = case.backend(0.25);
    let original = case.instance.query().variables();
    let options = PivotingOptions {
        materialize_threshold: Some(u128::MAX),
        ..PivotingOptions::default()
    };
    let tracer = crate::trace::NoopTracer;
    let solved = crate::batch::quantile_batch_backend(
        &backend,
        &case.source(),
        &[0.5],
        &options,
        &original,
        &tracer,
    );
    assert_eq!(solved.unwrap()[0].iterations, 0);
    assert!(backend.construction.get().is_none());
    assert!(memoised(&case.encoded).is_none());
}

/// An ε′-lossy solve of `phis` on `instance` under `case`'s ranking.
fn lossy_solve(
    case: &Case,
    instance: &EncodedInstance,
    phis: &[f64],
    epsilon: f64,
) -> Vec<QuantileResult> {
    let (options, tracer) = (PivotingOptions::default(), crate::trace::NoopTracer);
    approximate_sum_quantile_batch_encoded_traced(
        instance,
        &case.ranking,
        phis,
        epsilon,
        &options,
        &tracer,
    )
    .unwrap()
}

/// What a result must repeat bit for bit: its answer, weight bits, rank and
/// `iterations`.
fn fingerprint(results: &[QuantileResult]) -> Vec<(Assignment, Vec<u64>, u128, usize)> {
    let print = |r: &QuantileResult| {
        (
            r.answer.clone(),
            bits(&r.weight),
            r.target_index,
            r.iterations,
        )
    };
    results.iter().map(print).collect()
}

/// The construction `instance`'s memo holds.
fn memoised(instance: &EncodedInstance) -> Option<Arc<LossyConstruction>> {
    instance.exec_memo().get::<LossyConstruction>()
}

const MEMO_PHIS: [f64; 3] = [0.1, 0.5, 0.9];

/// The second and third solves on one instance cut their windows from the first
/// one's construction and answer bit-identically to a freshly encoded instance, at
/// one and four threads. Fails if the backend builds without looking at the memo,
/// or does not leave what it built there.
#[test]
fn later_solves_reuse_the_memoised_construction() {
    let case = small_case();
    for threads in [1, 4] {
        qjoin_par::with_pool(&qjoin_par::Pool::new(threads), || {
            let instance = EncodedInstance::from_instance(&case.instance).unwrap();
            let first = lossy_solve(&case, &instance, &MEMO_PHIS, 0.25);
            let built = memoised(&instance).expect("the first solve leaves its construction");
            for _ in 0..2 {
                let again = lossy_solve(&case, &instance, &MEMO_PHIS, 0.25);
                assert!(
                    Arc::ptr_eq(&built, &memoised(&instance).unwrap()),
                    "T={threads}"
                );
                let fresh = EncodedInstance::from_instance(&case.instance).unwrap();
                let expected = fingerprint(&lossy_solve(&case, &fresh, &MEMO_PHIS, 0.25));
                assert_eq!(fingerprint(&again), expected, "T={threads}");
                assert_eq!(fingerprint(&first), expected, "T={threads}");
            }
        });
    }
}

/// ε₁, ε₂, ε₁ on one instance: each solve answers like a fresh instance, and the
/// memo holds one construction, the latest ε′'s — the one it replaced is freed.
/// Fails if a construction is reused across ε′ (or rankings), or if the memo keeps
/// a construction per ε′.
#[test]
fn another_epsilon_replaces_the_memoised_construction() {
    let case = small_case();
    let instance = EncodedInstance::from_instance(&case.instance).unwrap();
    let mut replaced: Option<std::sync::Weak<LossyConstruction>> = None;
    for epsilon in [0.25, 0.1, 0.25] {
        let solved = fingerprint(&lossy_solve(&case, &instance, &MEMO_PHIS, epsilon));
        let fresh = EncodedInstance::from_instance(&case.instance).unwrap();
        let expected = fingerprint(&lossy_solve(&case, &fresh, &MEMO_PHIS, epsilon));
        assert_eq!(solved, expected, "ε′={epsilon}");
        let built = memoised(&instance).unwrap();
        assert!(built.is_for(&case.ranking, epsilon), "ε′={epsilon}");
        if let Some(replaced) = replaced {
            assert!(
                replaced.upgrade().is_none(),
                "ε′={epsilon}: the old one is kept"
            );
        }
        replaced = Some(Arc::downgrade(&built));
    }
    let max = Ranking::max(case.instance.query().variables());
    assert!(!memoised(&instance).unwrap().is_for(&max, 0.25));
}

/// The construction drops with the last clone of its instance. Fails if it holds a
/// strong handle on that instance, whose memo owns it: the pair would never drop.
#[test]
fn dropping_the_instance_frees_its_construction() {
    let case = small_case();
    let instance = EncodedInstance::from_instance(&case.instance).unwrap();
    lossy_solve(&case, &instance, &MEMO_PHIS, 0.25);
    let built = Arc::downgrade(&memoised(&instance).unwrap());
    assert!(built.upgrade().is_some());
    drop(instance);
    assert!(
        built.upgrade().is_none(),
        "the construction outlives its instance"
    );
}

/// Eight threads ask a fresh instance for one φ each at once: every cold solve
/// races for the construction, and every answer is the sequential one.
#[test]
fn concurrent_cold_solves_answer_like_sequential_ones() {
    let case = small_case();
    let phis: Vec<f64> = (0..8).map(|i| (i as f64 + 0.5) / 8.0).collect();
    let sequential = EncodedInstance::from_instance(&case.instance).unwrap();
    let expected = fingerprint(&lossy_solve(&case, &sequential, &phis, 0.25));
    let instance = EncodedInstance::from_instance(&case.instance).unwrap();
    let barrier = std::sync::Barrier::new(phis.len());
    let solved: Vec<_> = std::thread::scope(|scope| {
        let solves: Vec<_> = (phis.iter())
            .map(|&phi| {
                let (case, instance, barrier) = (&case, &instance, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    fingerprint(&lossy_solve(case, instance, &[phi], 0.25)).remove(0)
                })
            })
            .collect();
        solves
            .into_iter()
            .map(|solve| solve.join().unwrap())
            .collect()
    });
    assert_eq!(solved, expected);
    assert!(memoised(&instance).unwrap().is_for(&case.ranking, 0.25));
}
