//! Encoded-vs-row equivalence: the encoded execution layer — the one representation
//! production solves run on — must return **pointwise identical** answers to the
//! row reference oracle (the same driver over materialized instances, with an
//! explicit `MinMaxTrimmer`, `LexTrimmer`, `AdjacentSumTrimmer` or
//! `LossySumTrimmer`) — same answer assignment, same weight (bit for bit), same
//! target index, same iteration count — across ranking families, random instances,
//! and boundary φ values. Both run one driver, so the batch tests also hold its
//! answers to the independent materialize-and-sort oracle.

use proptest::prelude::*;
use quantile_joins::core::encoded::exact_quantile_batch_encoded_traced;
use quantile_joins::core::quantile::rank_of_weight;
use quantile_joins::core::sampling::quantile_by_sampling_batch_encoded;
use quantile_joins::core::NoopTracer;
use quantile_joins::prelude::*;
use quantile_joins::workload::random_acyclic::{
    shaped_instance, tie_heavy_ranking, RandomAcyclicConfig,
};

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

/// A ranking of the requested family over the instance's variables, mirroring the
/// families the engine's dichotomy routes to the exact path.
fn ranking_for(instance: &Instance, kind: usize) -> Option<Ranking> {
    let variables = instance.query().variables();
    match kind {
        0 => Some(Ranking::min(variables)),
        1 => Some(Ranking::max(variables)),
        2 => Some(Ranking::lex(variables.into_iter().take(2).collect())),
        _ => {
            // Partial SUM over a prefix of the variables, only when tractable.
            let weighted: Vec<Variable> = variables.into_iter().take(2).collect();
            classify_partial_sum(instance.query(), &weighted)
                .is_tractable()
                .then(|| Ranking::sum(weighted))
        }
    }
}

/// The row reference trimmer for an exact ranking (SUM only where the dichotomy
/// admits it, which is all `ranking_for` and the fixed workloads produce).
fn row_trimmer(ranking: &Ranking) -> &'static dyn Trimmer {
    match ranking.kind() {
        AggregateKind::Min | AggregateKind::Max => &MinMaxTrimmer,
        AggregateKind::Lex => &LexTrimmer,
        AggregateKind::Sum => &AdjacentSumTrimmer,
    }
}

/// One exact solve on the row reference oracle at default options.
fn row_quantile(instance: &Instance, ranking: &Ranking, phi: f64) -> QuantileResult {
    let options = PivotingOptions::default();
    quantile_by_pivoting(instance, ranking, phi, row_trimmer(ranking), &options).unwrap()
}

/// The encoded batch solve over a pre-encoded instance (the engine's entry).
fn encoded_batch(
    instance: &EncodedInstance,
    ranking: &Ranking,
    phis: &[f64],
    options: &PivotingOptions,
) -> Vec<QuantileResult> {
    exact_quantile_batch_encoded_traced(instance, ranking, phis, options, &NoopTracer).unwrap()
}

fn assert_pointwise_equal(a: &QuantileResult, b: &QuantileResult, context: &str) {
    assert_eq!(a.answer, b.answer, "{context}: answers differ");
    assert_eq!(a.weight, b.weight, "{context}: weights differ");
    assert_eq!(a.total_answers, b.total_answers, "{context}: totals differ");
    assert_eq!(
        a.target_index, b.target_index,
        "{context}: target indices differ"
    );
    assert_eq!(
        a.iterations, b.iterations,
        "{context}: iteration counts differ"
    );
}

/// φ values that stress rank boundaries: the extremes, plus fractions that land
/// exactly on and just beside integer ranks.
fn boundary_phis(total: u128) -> Vec<f64> {
    let mut phis = vec![0.0, 0.25, 0.5, 0.75, 1.0];
    if total > 1 {
        let t = total as f64;
        phis.push(1.0 / t);
        phis.push((total - 1) as f64 / t);
        phis.push(((total / 2) as f64) / t);
    }
    phis
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `exact_quantile` (encoded) equals the row reference oracle pointwise across
    /// MIN/MAX/LEX/SUM rankings and boundary φ values on random acyclic instances.
    #[test]
    fn encoded_and_row_solves_are_pointwise_identical(
        seed in 0u64..3000,
        atoms in 1usize..4,
        kind in 0usize..4,
    ) {
        let instance = random_instance(seed, atoms);
        let Some(ranking) = ranking_for(&instance, kind) else { return Ok(()) };
        let total = count_answers(&instance).unwrap();
        if total == 0 {
            return Ok(());
        }
        for phi in boundary_phis(total) {
            let encoded = exact_quantile(&instance, &ranking, phi).unwrap();
            let row = row_quantile(&instance, &ranking, phi);
            assert_pointwise_equal(&encoded, &row, &format!("{ranking} at φ={phi}"));
            // And the answer really is a φ-quantile.
            let (below, equal) = rank_of_weight(&instance, &ranking, &encoded.weight).unwrap();
            prop_assert!(
                encoded.target_index >= below && encoded.target_index < below + equal,
                "{ranking} at φ={phi}: target {} outside window [{below}, {})",
                encoded.target_index,
                below + equal
            );
        }
    }

    /// Batched multi-φ solving is pointwise identical across the two paths, and at
    /// every boundary φ each result's target rank and weight bits are the
    /// materialize-and-sort oracle's — at the default threshold, and again at a
    /// threshold of one, where every solve recurses. (The oracle is what catches a
    /// driver bug: both paths run the one driver, so they agree on its mistakes.)
    #[test]
    fn encoded_and_row_batches_are_pointwise_identical(
        seed in 0u64..3000,
        atoms in 1usize..4,
        kind in 0usize..4,
    ) {
        let instance = random_instance(seed, atoms);
        let Some(ranking) = ranking_for(&instance, kind) else { return Ok(()) };
        let total = count_answers(&instance).unwrap();
        if total == 0 {
            return Ok(());
        }
        let phis = boundary_phis(total);
        let oracle: Vec<QuantileResult> = phis
            .iter()
            .map(|&phi| {
                quantile_by_materialization(&instance, &ranking, phi, BaselineStrategy::FullSort)
                    .unwrap()
            })
            .collect();
        let encoded_instance = EncodedInstance::from_instance(&instance).unwrap();
        let recursing = PivotingOptions {
            materialize_threshold: Some(1),
            ..PivotingOptions::default()
        };
        for options in [PivotingOptions::default(), recursing] {
            let threshold = options.materialize_threshold;
            let encoded = encoded_batch(&encoded_instance, &ranking, &phis, &options);
            let row = quantile_batch_by_pivoting(
                &instance, &ranking, &phis, row_trimmer(&ranking), &options,
            )
            .unwrap();
            prop_assert_eq!(encoded.len(), row.len());
            for (((phi, e), r), o) in phis.iter().zip(&encoded).zip(&row).zip(&oracle) {
                let context = format!("batch {ranking} at φ={phi}, threshold {threshold:?}");
                assert_pointwise_equal(e, r, &context);
                prop_assert_eq!(e.target_index, o.target_index, "{}: target", &context);
                prop_assert_eq!(
                    weight_bits(&e.weight),
                    weight_bits(&o.weight),
                    "{}: weight bits differ from the oracle's",
                    &context
                );
            }
        }
    }
}

/// The engine's acceptance workload: encoded and row paths agree on the paper's
/// social-network join at several φ, via both the pre-encoded entry point and the
/// encode-per-solve solver.
#[test]
fn social_network_workload_is_pointwise_identical() {
    let config = SocialConfig {
        rows_per_relation: 120,
        seed: 2023,
        ..Default::default()
    };
    let instance = config.generate();
    let ranking = config.likes_ranking();
    let encoded_db = EncodedInstance::from_instance(&instance).unwrap();
    let options = PivotingOptions::default();
    for phi in [0.0, 0.1, 0.5, 0.9, 1.0] {
        let default_path = exact_quantile(&instance, &ranking, phi).unwrap();
        let row = row_quantile(&instance, &ranking, phi);
        let pre_encoded = encoded_batch(&encoded_db, &ranking, &[phi], &options).remove(0);
        assert_pointwise_equal(&default_path, &row, &format!("social φ={phi}"));
        assert_pointwise_equal(&pre_encoded, &row, &format!("social pre-encoded φ={phi}"));
    }
    let phis = [0.05, 0.25, 0.5, 0.75, 0.95];
    let batch_enc = encoded_batch(&encoded_db, &ranking, &phis, &options);
    let batch_row =
        quantile_batch_by_pivoting(&instance, &ranking, &phis, &AdjacentSumTrimmer, &options)
            .unwrap();
    for ((phi, e), r) in phis.iter().zip(&batch_enc).zip(&batch_row) {
        assert_pointwise_equal(e, r, &format!("social batch φ={phi}"));
    }
}

/// Pins the *recursion*, not just the answers: on a social instance large enough
/// for several pivoting rounds, the encoded and the row solve must take the same
/// branches (same `iterations`, same tie-broken `answer`) at every φ, including the
/// rank boundaries, at executor degrees 1 and 4. Each round trims the original
/// instance to a `(low, high)` window in one dyadic construction; if the two paths
/// built their candidate instances differently (say one stacked two single-bound
/// constructions, carrying two `v_sum` columns), Algorithm 2 would pick different —
/// equally valid — pivots and the weights would still agree while `iterations`
/// and `answer` drifted apart.
#[test]
fn social_sum_multi_round_recursions_are_pointwise_identical() {
    // Seed 11 is one where a half-fused build (encoded fused, row two-pass) is caught:
    // it disagrees on `iterations`/`answer` at 4 of the 20 fractions below.
    let config = SocialConfig {
        rows_per_relation: 300,
        seed: 11,
        ..Default::default()
    };
    let instance = config.generate();
    let ranking = config.likes_ranking();
    let total = count_answers(&instance).unwrap();
    let mut phis = boundary_phis(total);
    phis.extend([
        0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99,
    ]);
    assert!(phis.len() >= 16);
    let row: Vec<QuantileResult> = phis
        .iter()
        .map(|&phi| row_quantile(&instance, &ranking, phi))
        .collect();
    assert!(
        row.iter().filter(|r| r.iterations >= 3).count() >= phis.len() / 2,
        "the instance must be large enough for multi-round solves: iterations {:?}",
        row.iter().map(|r| r.iterations).collect::<Vec<_>>()
    );
    let options = PivotingOptions::default();
    let row_batch =
        quantile_batch_by_pivoting(&instance, &ranking, &phis, &AdjacentSumTrimmer, &options)
            .unwrap();
    for (threads, pool) in sweep_pools().iter().filter(|(t, _)| [1, 4].contains(t)) {
        quantile_joins::par::with_pool(pool, || {
            for (phi, r) in phis.iter().zip(&row) {
                let encoded = exact_quantile(&instance, &ranking, *phi).unwrap();
                assert_pointwise_equal(&encoded, r, &format!("social φ={phi}, T={threads}"));
            }
            let batch = exact_quantile_batch(&instance, &ranking, &phis).unwrap();
            for ((phi, e), r) in phis.iter().zip(&batch).zip(&row_batch) {
                assert_pointwise_equal(e, r, &format!("social batch φ={phi}, T={threads}"));
            }
        });
    }
}

/// A database relation the query never references must still count towards the
/// materialization threshold on both paths (regression: the encoded path once
/// sized the database from query-referenced views only, diverging from the row
/// path's `Instance::database_size` and thus from its recursion).
#[test]
fn unreferenced_relations_keep_thresholds_identical() {
    let mut r1 = Relation::new("R1", 2);
    let mut r2 = Relation::new("R2", 2);
    for i in 0..25i64 {
        r1.push(vec![Value::from(i % 5), Value::from(i % 3)])
            .unwrap();
        r2.push(vec![Value::from(i % 3), Value::from(i % 4)])
            .unwrap();
    }
    // A large relation no atom references: it inflates the database size (and so
    // the default materialization threshold) on the row path.
    let mut unused = Relation::new("Unused", 1);
    for i in 0..500i64 {
        unused.push(vec![Value::from(i)]).unwrap();
    }
    let instance = Instance::new(
        path_query(2),
        Database::from_relations([r1, r2, unused]).unwrap(),
    )
    .unwrap();
    let ranking = Ranking::sum(instance.query().variables());
    for phi in [0.0, 0.3, 0.5, 0.8, 1.0] {
        let encoded = exact_quantile(&instance, &ranking, phi).unwrap();
        let row = row_quantile(&instance, &ranking, phi);
        assert_pointwise_equal(&encoded, &row, &format!("unreferenced relation φ={phi}"));
    }
}

/// String join keys exercise the non-integer dictionary space.
#[test]
fn string_keys_are_pointwise_identical() {
    let mut r1 = Relation::new("R1", 2);
    let mut r2 = Relation::new("R2", 2);
    for i in 0..30i64 {
        r1.push(vec![
            Value::from(i),
            Value::from(format!("k{}", i % 5).as_str()),
        ])
        .unwrap();
        r2.push(vec![
            Value::from(format!("k{}", i % 5).as_str()),
            Value::from(1000 - 13 * i),
        ])
        .unwrap();
    }
    let instance =
        Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
    // Weight only the numeric endpoints (strings have no identity weight).
    let ranking = Ranking::sum(vars(&["x1", "x3"]));
    for phi in [0.0, 0.3, 0.5, 1.0] {
        let encoded = exact_quantile(&instance, &ranking, phi).unwrap();
        let row = row_quantile(&instance, &ranking, phi);
        assert_pointwise_equal(&encoded, &row, &format!("string keys φ={phi}"));
    }
}

// ---------------------------------------------------------------------------
// Thread-sweep bit-identity: the chunk executor must not change any answer
// ---------------------------------------------------------------------------

/// The executor pools for the thread sweep, built once per test process. T=1 is
/// the guaranteed-sequential degree; the others exercise real chunk scheduling
/// (the parallel code paths run even on a 1-core host — determinism comes from
/// canonical chunk order, not from how chunks land on threads).
fn sweep_pools() -> &'static [(usize, quantile_joins::par::Pool)] {
    static POOLS: std::sync::OnceLock<Vec<(usize, quantile_joins::par::Pool)>> =
        std::sync::OnceLock::new();
    POOLS.get_or_init(|| {
        [1usize, 2, 4, 8]
            .into_iter()
            .map(|t| (t, quantile_joins::par::Pool::new(t)))
            .collect()
    })
}

/// Weights as raw bit patterns: "identical" for the sweep means bit-identical
/// `f64`s, not merely `==` (which would let `-0.0` and `0.0` slip past).
fn weight_bits(w: &Weight) -> Vec<u64> {
    match w {
        Weight::Num(x) => vec![x.to_bits()],
        Weight::Vec(v) => v.iter().map(|x| x.to_bits()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every answer of the encoded batch solve is bit-identical at executor
    /// degrees 1, 2, 4, and 8 — across MIN/MAX/LEX/SUM rankings and boundary φ.
    #[test]
    fn parallel_solves_are_bit_identical_across_thread_counts(
        seed in 0u64..3000,
        atoms in 1usize..4,
        kind in 0usize..4,
    ) {
        let instance = random_instance(seed, atoms);
        let Some(ranking) = ranking_for(&instance, kind) else { return Ok(()) };
        let total = count_answers(&instance).unwrap();
        if total == 0 {
            return Ok(());
        }
        let phis = boundary_phis(total);
        let mut baseline: Option<Vec<QuantileResult>> = None;
        for (threads, pool) in sweep_pools() {
            let results = quantile_joins::par::with_pool(pool, || {
                exact_quantile_batch(&instance, &ranking, &phis)
            })
            .unwrap();
            match &baseline {
                None => baseline = Some(results),
                Some(sequential) => {
                    prop_assert_eq!(results.len(), sequential.len());
                    for ((phi, seq), par) in phis.iter().zip(sequential).zip(&results) {
                        let context = format!("{ranking} at φ={phi}, {threads} threads");
                        assert_pointwise_equal(par, seq, &context);
                        prop_assert_eq!(
                            weight_bits(&par.weight),
                            weight_bits(&seq.weight),
                            "{}: weight bits differ",
                            context
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The leaf alone: weights-first selection against the oracle, on both paths
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// With the materialization threshold lifted every solve is the leaf and
    /// nothing else, here over the shapes it must handle (path, star, social,
    /// self-join, repeated variable, random tree) and rankings that tie heavily
    /// (one weight for the whole leaf, `±0.0`, two, three, many). For **every** rank: the encoded and the row leaf
    /// return the same answer and weight bits, at one and four threads; the weight
    /// is the one the materialize-and-sort baseline finds at that rank; and a batch
    /// of all ranks — reversed, with a duplicate — equals the single solves.
    #[test]
    fn leaf_only_solves_agree_on_every_rank_across_paths_and_batches(
        seed in 0u64..100_000,
        shape in 0usize..6,
        kind in 0usize..4,
        domain in 0usize..5,
    ) {
        let instance = shaped_instance(shape, seed);
        let kind = [AggregateKind::Sum, AggregateKind::Min, AggregateKind::Max, AggregateKind::Lex][kind];
        let ranking = tie_heavy_ranking(&instance, kind, domain);
        let total = count_answers(&instance).unwrap();
        if total == 0 {
            return Ok(());
        }
        let options = PivotingOptions {
            materialize_threshold: Some(u128::MAX),
            ..PivotingOptions::default()
        };
        let encoded = EncodedInstance::from_instance(&instance).unwrap();
        let mut phis: Vec<f64> = (0..total).rev().map(|rank| rank as f64 / total as f64).collect();
        phis.push(phis[0]);
        let row: Vec<QuantileResult> = phis
            .iter()
            .map(|&phi| quantile_by_pivoting(&instance, &ranking, phi, &MinMaxTrimmer, &options).unwrap())
            .collect();
        for (phi, r) in phis.iter().zip(&row) {
            let oracle =
                quantile_by_materialization(&instance, &ranking, *phi, BaselineStrategy::FullSort).unwrap();
            prop_assert_eq!(r.target_index, oracle.target_index);
            prop_assert_eq!(weight_bits(&r.weight), weight_bits(&oracle.weight), "{} φ={}", &ranking, phi);
            prop_assert_eq!(r.iterations, 0);
        }
        let row_batch =
            quantile_batch_by_pivoting(&instance, &ranking, &phis, &MinMaxTrimmer, &options).unwrap();
        for (threads, pool) in sweep_pools().iter().filter(|(t, _)| *t == 1 || *t == 4) {
            let (singles, batch) = quantile_joins::par::with_pool(pool, || {
                let singles: Vec<QuantileResult> = phis
                    .iter()
                    .map(|&phi| encoded_batch(&encoded, &ranking, &[phi], &options).remove(0))
                    .collect();
                let batch = encoded_batch(&encoded, &ranking, &phis, &options);
                (singles, batch)
            });
            for (i, phi) in phis.iter().enumerate() {
                let context = format!("{ranking} leaf φ={phi} T={threads}");
                assert_pointwise_equal(&singles[i], &row[i], &context);
                prop_assert_eq!(weight_bits(&singles[i].weight), weight_bits(&row[i].weight), "{}", &context);
                assert_pointwise_equal(&batch[i], &singles[i], &format!("{context}: batch"));
                assert_pointwise_equal(&row_batch[i], &row[i], &format!("{context}: row batch"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The link-resolved context against the row context
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `EncodedContext` resolves every join-tree edge once into gid links and a
    /// CSR group index. Whatever the gid numbering, everything read through it
    /// must equal the row path's `JoinTreeContext` on the same instance, at one
    /// and at four threads: the surviving rows per node in relation order, the
    /// group each parent row links to (members ascending), the answer count, the
    /// enumeration sequence (sequential and chunked), and direct access at every
    /// index.
    #[test]
    fn link_resolved_context_matches_the_row_context(
        seed in 0u64..3000,
        atoms in 1usize..5,
    ) {
        use quantile_joins::exec::encoded::{
            count_answers_ctx, for_each_answer_codes, map_answer_code_chunks, EncodedContext,
        };
        use quantile_joins::exec::{yannakakis, DirectAccess, EncodedDirectAccess, JoinTreeContext};

        let instance = random_instance(seed, atoms);
        let encoded = EncodedInstance::from_instance(&instance).unwrap();
        let dict = encoded.dictionary();
        let decode = |codes: &[u64]| -> Vec<Value> {
            codes.iter().map(|&c| dict.decode(c).clone()).collect()
        };
        let row_ctx = JoinTreeContext::build(&instance).unwrap();
        let mut row_answers: Vec<Vec<Value>> = Vec::new();
        yannakakis::for_each_answer(&row_ctx, |values| row_answers.push(values.to_vec()));
        let row_access = DirectAccess::new(&instance).unwrap();

        for (threads, pool) in sweep_pools().iter().filter(|(t, _)| *t == 1 || *t == 4) {
            let ctx = quantile_joins::par::with_pool(pool, || EncodedContext::build(&encoded)).unwrap();
            for (node, row_node) in ctx.nodes().iter().zip(row_ctx.nodes()) {
                let id = node.node_id;
                let arity = ctx.query().atom(node.atom_index).arity();
                let survivors: Vec<Vec<Value>> = (0..node.rows.len())
                    .map(|i| (0..arity).map(|col| dict.decode(ctx.code(id, i, col)).clone()).collect())
                    .collect();
                let expected: Vec<Vec<Value>> =
                    row_node.tuples.iter().map(|t| t.values().to_vec()).collect();
                prop_assert_eq!(survivors, expected, "T={} node {}: survivors", threads, id);

                let Some(parent) = ctx.tree().node(id).parent else { continue };
                for (i, parent_tuple) in row_ctx.node(parent).tuples.iter().enumerate() {
                    let members: Vec<usize> =
                        ctx.group(id, ctx.link(id, i)).iter().map(|&m| m as usize).collect();
                    prop_assert_eq!(
                        members.as_slice(),
                        row_ctx.child_group(id, parent_tuple),
                        "T={} node {} parent row {}: group", threads, id, i
                    );
                }
            }

            let (count, walked, chunked) = quantile_joins::par::with_pool(pool, || {
                let mut walked: Vec<Vec<Value>> = Vec::new();
                for_each_answer_codes(&ctx, |codes| walked.push(decode(codes)));
                let chunked = map_answer_code_chunks(&ctx, 4, Vec::new, |out, codes| {
                    out.push(decode(codes))
                });
                (count_answers_ctx(&ctx), walked, chunked.concat())
            });
            prop_assert_eq!(count, row_answers.len() as u128, "T={}: count", threads);
            prop_assert_eq!(&walked, &row_answers, "T={}: enumeration", threads);
            prop_assert_eq!(&chunked, &row_answers, "T={}: chunked enumeration", threads);

            let access = quantile_joins::par::with_pool(pool, || {
                EncodedDirectAccess::from_context(ctx, std::sync::Arc::clone(dict))
            });
            prop_assert_eq!(access.total(), row_access.total(), "T={}: total", threads);
            for i in 0..access.total() {
                prop_assert_eq!(
                    access.answer_at(i).unwrap(),
                    row_access.answer_at(i).unwrap(),
                    "T={}: answer_at({})", threads, i
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Approximate path: deterministic lossy trims and the randomized sampler
// ---------------------------------------------------------------------------

/// A full SUM ranking over every variable — intractable exactly on most shapes,
/// which is precisely the regime the lossy path exists for (Theorem 6.2 applies
/// to every acyclic query).
fn full_sum_ranking(instance: &Instance) -> Ranking {
    Ranking::sum(instance.query().variables())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The encoded lossy solve (`approximate_sum_quantile`: one Algorithm-4
    /// construction per solve, every trim a window of it) is pointwise identical
    /// to the row reference solve with `LossySumTrimmer::new(ε)` (two stacked
    /// passes per window; `ErrorBudget::Direct` spends ε on every trim) — same
    /// answer, same weight, same iteration count — across ε values, boundary φ,
    /// and executor degrees 1 and 4. Identical because at these sizes no join
    /// group is large enough for a sketch bucket to hold two sources, so both
    /// constructions are exact; where sketches compress the two bucket differently
    /// and `qjoin-core`'s `encoded/lossy_tests.rs` holds the encoded one within ε.
    #[test]
    fn lossy_encoded_and_row_solves_are_pointwise_identical(
        seed in 0u64..3000,
        atoms in 1usize..4,
        eps_idx in 0usize..3,
    ) {
        let instance = random_instance(seed, atoms);
        let ranking = full_sum_ranking(&instance);
        let total = count_answers(&instance).unwrap();
        if total == 0 {
            return Ok(());
        }
        let epsilon = [0.25, 0.1, 0.05][eps_idx];
        for phi in boundary_phis(total) {
            let mut baseline: Option<(QuantileResult, QuantileResult)> = None;
            for (threads, pool) in sweep_pools().iter().filter(|(t, _)| *t == 1 || *t == 4) {
                let (encoded, row) = quantile_joins::par::with_pool(pool, || {
                    let encoded = approximate_sum_quantile(
                        &instance, &ranking, phi, epsilon, ErrorBudget::Direct,
                    )?;
                    let row = quantile_by_pivoting(
                        &instance,
                        &ranking,
                        phi,
                        &LossySumTrimmer::new(epsilon),
                        &PivotingOptions::default(),
                    )?;
                    Ok::<_, quantile_joins::CoreError>((encoded, row))
                })
                .unwrap();
                let context = format!("lossy ε={epsilon} φ={phi} T={threads}");
                assert_pointwise_equal(&encoded, &row, &context);
                prop_assert_eq!(
                    weight_bits(&encoded.weight),
                    weight_bits(&row.weight),
                    "{}: weight bits differ",
                    context
                );
                match &baseline {
                    None => baseline = Some((encoded, row)),
                    Some((seq_enc, _)) => {
                        assert_pointwise_equal(&encoded, seq_enc, &format!("{context} vs T=1"));
                    }
                }
            }
        }
    }

    /// The randomized sampler is seed-identical across its two entries — encode per
    /// call, and the engine's pre-encoded instance — and across executor degrees 1
    /// and 4: the same `SamplingOptions { seed }` draws the same Hoeffding sample,
    /// so every returned quantile matches exactly. (No row half: both samplers are
    /// `answer_at(rng.random_range(0..total))`, and
    /// `link_resolved_context_matches_the_row_context` holds the encoded
    /// `answer_at` to the row one at every index.) When the sample budget reaches
    /// the answer count, the sampler refuses with [`CoreError::ApproxRefused`] and a
    /// witness naming the regime.
    #[test]
    fn sampler_is_seed_identical_across_paths(
        seed in 0u64..3000,
        atoms in 1usize..4,
        sample_seed in 0u64..1000,
    ) {
        let instance = random_instance(seed, atoms);
        let ranking = full_sum_ranking(&instance);
        let total = count_answers(&instance).unwrap();
        if total == 0 {
            return Ok(());
        }
        let phis = boundary_phis(total);
        let pre_encoded = EncodedInstance::from_instance(&instance).unwrap();
        // Small instances sit under the Hoeffding budget for tight ε; pick a
        // loose ε that samples when possible, and assert the refusal contract
        // when even that budget reaches |Q(D)|.
        let options = SamplingOptions { epsilon: 0.2, delta: 0.1, seed: sample_seed };
        let mut baseline: Option<Vec<QuantileResult>> = None;
        for (threads, pool) in sweep_pools().iter().filter(|(t, _)| *t == 1 || *t == 4) {
            let (per_call, engine) = quantile_joins::par::with_pool(pool, || {
                let per_call = quantile_by_sampling_batch(&instance, &ranking, &phis, &options);
                let engine = quantile_by_sampling_batch_encoded(&pre_encoded, &ranking, &phis, &options);
                (per_call, engine)
            });
            if (options.sample_count() as u128) >= total {
                for (label, result) in [("per-call", &per_call), ("pre-encoded", &engine)] {
                    match result {
                        Err(quantile_joins::CoreError::ApproxRefused(witness)) => {
                            prop_assert!(
                                witness.contains("Hoeffding"),
                                "{label} T={threads}: witness lacks regime: {witness}"
                            );
                        }
                        other => prop_assert!(
                            false,
                            "{label} T={threads}: expected ApproxRefused, got {other:?}"
                        ),
                    }
                }
                continue;
            }
            let (per_call, engine) = (per_call.unwrap(), engine.unwrap());
            let first = baseline.get_or_insert_with(|| per_call.clone());
            prop_assert_eq!(per_call.len(), phis.len());
            for (((phi, p), e), b) in phis.iter().zip(&per_call).zip(&engine).zip(first.iter()) {
                let context = format!("sampler seed={sample_seed} φ={phi} T={threads}");
                assert_pointwise_equal(p, e, &context);
                assert_pointwise_equal(p, b, &format!("{context} vs T=1"));
                prop_assert_eq!(
                    weight_bits(&p.weight),
                    weight_bits(&e.weight),
                    "{}: weight bits differ",
                    context
                );
            }
        }
    }
}

/// The engine end to end at explicit thread counts: `EngineConfig { threads }`
/// must not change any served answer, and T=1 must not spawn executor workers.
#[test]
fn engine_answers_are_bit_identical_across_thread_configs() {
    let config = SocialConfig {
        rows_per_relation: 150,
        seed: 77,
        ..Default::default()
    };
    let phis = [0.0, 0.1, 0.5, 0.9, 1.0];
    let mut baseline: Option<Vec<Vec<u64>>> = None;
    for threads in [1usize, 2, 4, 8] {
        let engine = Engine::with_config(quantile_joins::engine::EngineConfig {
            threads: Some(threads),
            ..Default::default()
        });
        let (_, database) = config.generate().into_parts();
        engine.create_database("social", database).unwrap();
        engine
            .register(
                "likes",
                "social",
                social_network_query(),
                config.likes_ranking(),
            )
            .unwrap();
        let answers = engine.quantile_batch("likes", &phis).unwrap();
        let bits: Vec<Vec<u64>> = answers
            .iter()
            .map(|a| weight_bits(&a.result.weight))
            .collect();
        match &baseline {
            None => baseline = Some(bits),
            Some(sequential) => {
                assert_eq!(&bits, sequential, "threads={threads} changed an answer")
            }
        }
    }
}
