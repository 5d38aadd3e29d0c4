//! A window of a [`DyadicTemplate`] against the work it replaces: its views against
//! a fresh construction, row for row, and its derived context against
//! [`EncodedContext::build`] over the same views.

use super::tests::{path_instance, self_join_instance, windows};
use super::*;
use crate::encoded::pivot::select_pivot_encoded;
use crate::encoded::EncodedBackend;
use crate::plan::{Accuracy, Plan};
use crate::quantile::{materialized_keyed_answers, SolveBackend};
use crate::quantile::{quantile_by_pivoting, PivotingOptions, QuantileResult};
use crate::trace::NoopTracer;
use crate::trim::AdjacentSumTrimmer;
use qjoin_data::Value;
use qjoin_exec::encoded::{count_answers_ctx, for_each_answer_codes, subtree_counts};
use qjoin_query::variable::vars;
use qjoin_query::Instance;
use qjoin_ranking::CmpOp;
use qjoin_workload::random_acyclic::random_acyclic_instance;
use qjoin_workload::social::SocialConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Every row of a view as `(base row, codes)`, in view order.
type Rows = Vec<(u32, Vec<u64>)>;

fn dump(rel: &EncodedRelation) -> Rows {
    (0..rel.len())
        .map(|row| (rel.sel().get(row), codes(rel, row)))
        .collect()
}

fn codes(rel: &EncodedRelation, row: usize) -> Vec<u64> {
    (0..rel.arity()).map(|col| rel.code(row, col)).collect()
}

/// The views a trim to `range` rewrites, by relation name, constructed afresh
/// here: the cover, the partial sums, B grouped by its sorted key and each group
/// sorted by `(sum, row)`, then the A rows' dyadic covers and B's expansion.
fn views_built_afresh(
    base: &EncodedInstance,
    ranking: &Ranking,
    weights: &CodeWeights,
    range: SumRange,
) -> Vec<(String, Rows)> {
    let query = base.query();
    let (a, b) = find_adjacent_cover(query, ranking.weighted_vars())
        .unwrap()
        .atoms;
    let atoms = if a == b { vec![a] } else { vec![a, b] };
    let tuple_weights = SumTupleWeights::with_preferred_atoms(query, ranking, &atoms);
    let rows = |atom: usize| -> Vec<(u32, Vec<u64>, f64)> {
        let rel = base.relation_of_atom(atom);
        let pairs = weighted_pairs(query, &tuple_weights, weights, atom);
        (0..rel.len())
            .map(|row| {
                (
                    rel.sel().get(row),
                    codes(rel, row),
                    row_sum(rel, &pairs, row),
                )
            })
            .collect()
    };
    let name = |atom: usize| query.atom(atom).relation().to_string();
    if a == b {
        let kept = (rows(a).into_iter())
            .filter(|(_, _, sum)| range.admits(*sum))
            .map(|(sel, codes, _)| (sel, codes))
            .collect();
        return vec![(name(a), kept)];
    }
    let shared: Vec<Variable> = (query.atom(a).variable_set())
        .intersection(&query.atom(b).variable_set())
        .cloned()
        .collect();
    let key = |atom: usize, codes: &[u64]| -> Vec<u64> {
        let position = |v: &Variable| query.atom(atom).positions_of(v)[0];
        shared.iter().map(|v| codes[position(v)]).collect()
    };
    let b_rows = rows(b);
    let mut groups: BTreeMap<Vec<u64>, Vec<usize>> = BTreeMap::new();
    for (i, (_, codes, _)) in b_rows.iter().enumerate() {
        groups.entry(key(b, codes)).or_default().push(i);
    }
    let groups: Vec<(Vec<u64>, Vec<usize>)> = (groups.into_iter())
        .map(|(key, mut members)| {
            members.sort_by(|&x, &y| b_rows[x].2.total_cmp(&b_rows[y].2).then(x.cmp(&y)));
            (key, members)
        })
        .collect();
    let with_code = |codes: &[u64], code: u64| [codes, &[code]].concat();
    let mut a_view = Rows::new();
    for (sel, codes, wa) in rows(a) {
        let Some(gid) = groups.iter().position(|(k, _)| *k == key(a, &codes)) else {
            continue;
        };
        let sums: Vec<f64> = groups[gid].1.iter().map(|&i| b_rows[i].2).collect();
        let (lo, hi) = range.positions(&sums, |&sum| sum, wa);
        dyadic_cover(lo, hi, |level, index| {
            let code = pack_interval(gid as u64, level, index);
            a_view.push((sel, with_code(&codes, code)));
        });
    }
    let mut b_view = Rows::new();
    for (gid, (_, members)) in groups.iter().enumerate() {
        for (pos, &i) in members.iter().enumerate() {
            for level in 0..=levels_for(members.len()) {
                let code = pack_interval(gid as u64, level, pos >> level);
                b_view.push((b_rows[i].0, with_code(&b_rows[i].1, code)));
            }
        }
    }
    vec![(name(a), a_view), (name(b), b_view)]
}

/// How often the suite met the shapes it is for.
#[derive(Default, Debug)]
struct Reach {
    single: usize,
    pair: usize,
    /// Pair windows whose tree has another edge at A or B, so that some A′ or B′
    /// row reads a non-`v` edge through its provenance.
    provenance: usize,
    /// Pair windows where A′ is B′'s parent and the reduction drops B′ rows: the
    /// A′ rows whose interval lost every B′ member must miss.
    lost_members: usize,
}

/// Every window of `windows()` over `instance`'s answer weights, trimmed by the
/// encoded backend: views against [`views_built_afresh`], and the context the trim
/// left in the memo against a fresh build over the same views.
fn assert_windows_derive_fresh_contexts(
    instance: &Instance,
    ranking: &Ranking,
    seed: u64,
    reach: &mut Reach,
    context: &str,
) {
    let encoded = EncodedInstance::from_instance(instance).unwrap();
    let backend = EncodedBackend::new(&encoded, ranking);
    let all = materialized_keyed_answers(instance, ranking, &[]).unwrap();
    let mut weights: Vec<f64> = all.iter().map(|(w, _)| w.as_num().unwrap()).collect();
    weights.push(0.0);
    weights.sort_by(f64::total_cmp);
    for (low, high) in windows(&weights, seed) {
        let context = format!("{context} window ({low}, {high})");
        let trimmed = backend
            .trim_between(&encoded, &low, &high, CmpOp::Lt)
            .unwrap();
        let Ok(SumWindow::Range(range)) = SumWindow::new(ranking, &low, &high) else {
            continue;
        };
        let derived = (trimmed.exec_memo().get::<EncodedContext>())
            .unwrap_or_else(|| panic!("{context}: no context in the memo before a count"));
        let template = encoded.exec_memo().get::<DyadicTemplate>().unwrap();
        for (name, rows) in views_built_afresh(&template.base, ranking, &backend.weights, range) {
            let view = trimmed.relation(&name).unwrap();
            assert_eq!(dump(view), rows, "{context}: view {name}");
        }

        let fresh = EncodedContext::build(&trimmed).unwrap();
        assert_eq!(derived.tree(), fresh.tree(), "{context}: tree");
        for (id, node) in fresh.nodes().iter().enumerate() {
            assert_eq!(
                derived.node(id).rows,
                node.rows,
                "{context}: rows of node {id}"
            );
        }
        let counts = |ctx: &EncodedContext| subtree_counts(ctx, None).per_tuple;
        assert_eq!(
            counts(&derived),
            counts(&fresh),
            "{context}: subtree counts"
        );
        let total = count_answers_ctx(&fresh);
        assert_eq!(count_answers_ctx(&derived), total, "{context}: count");
        let walk = |ctx: &EncodedContext| {
            let mut answers: Vec<Vec<u64>> = Vec::new();
            for_each_answer_codes(ctx, |codes| answers.push(codes.to_vec()));
            answers
        };
        assert_eq!(walk(&derived), walk(&fresh), "{context}: answers");
        if total > 0 {
            let unmemoised = trimmed.with_rewritten(trimmed.query().clone(), []).unwrap();
            let pivot = |instance| select_pivot_encoded(instance, ranking, &backend.weights);
            let (ours, theirs) = (pivot(&trimmed).unwrap(), pivot(&unmemoised).unwrap());
            assert_eq!(ours.assignment, theirs.assignment, "{context}: pivot");
            assert_eq!(ours.weight, theirs.weight, "{context}: pivot weight");
            assert_eq!(ours.c.to_bits(), theirs.c.to_bits(), "{context}: c");
        }

        let Some(pair) = &template.pair else {
            reach.single += 1;
            continue;
        };
        reach.pair += 1;
        let tree = fresh.tree();
        let node_of =
            |atom: usize| (0..tree.num_nodes()).find(|&id| tree.node(id).atom_index == atom);
        let (a, b) = (node_of(template.atom).unwrap(), node_of(pair.atom).unwrap());
        let degree =
            |id: usize| tree.node(id).children.len() + usize::from(tree.node(id).parent.is_some());
        reach.provenance += usize::from(degree(a) + degree(b) > 2);
        let b_rows = trimmed.relation_of_atom(pair.atom).len();
        reach.lost_members += usize::from(
            tree.node(b).parent == Some(a) && fresh.node(b).rows.len() < b_rows && total > 0,
        );
    }
}

/// `R(x1, x2) ⋈ S(x2, x3) ⋈ U(x3, x5) ⋈ T(x1, x4)` under SUM(x1, x3): the cover
/// is `(R, S)`, and GYO removes U into S, then S into R, which still joins T: so
/// B′ hangs under A′, its rows reduced by U first, and A′ rows probe its intervals.
fn fork_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relation = |name: &str, arity: usize, rows: usize| {
        let mut rel = qjoin_data::Relation::new(name, arity);
        for _ in 0..rows {
            let row = (0..arity).map(|_| Value::from(rng.random_range(0..4i64)));
            rel.push(row.collect()).unwrap();
        }
        rel
    };
    let relations = [
        relation("R", 2, 14),
        relation("S", 2, 20),
        relation("U", 2, 5),
        relation("T", 2, 8),
    ];
    let query = qjoin_query::JoinQuery::new(vec![
        qjoin_query::Atom::from_names("R", &["x1", "x2"]),
        qjoin_query::Atom::from_names("S", &["x2", "x3"]),
        qjoin_query::Atom::from_names("U", &["x3", "x5"]),
        qjoin_query::Atom::from_names("T", &["x1", "x4"]),
    ]);
    Instance::new(
        query,
        qjoin_data::Database::from_relations(relations).unwrap(),
    )
    .unwrap()
}

/// The derivation oracle: every window of 2- and 3-paths, social, the `E ⋈ E`
/// self-join and random acyclic instances under tractable SUMs (single-atom and
/// dyadic covers), at one and four threads. Fails if a B′ `v` id ignores the
/// level, if an A′ row whose interval has no B′ member left counts as a semi-join
/// hit, or if a non-`v` edge is read at an A′ row's own index instead of through
/// the A row it copies.
#[test]
fn sum_trims_derive_what_a_fresh_build_computes() {
    let mut cases: Vec<(String, Instance, Ranking)> = Vec::new();
    for seed in 0..3u64 {
        let two_path = path_instance(2, seed);
        let full = Ranking::sum(two_path.query().variables());
        cases.push((format!("2-path seed {seed}"), two_path.clone(), full));
        let single = Ranking::sum(vars(&["x1", "x2"]));
        cases.push((format!("2-path single seed {seed}"), two_path, single));
        let partial = Ranking::sum(vars(&["x1", "x2", "x3"]));
        cases.push((
            format!("3-path seed {seed}"),
            path_instance(3, seed),
            partial,
        ));
        let config = SocialConfig {
            users: 12,
            events: 4,
            rows_per_relation: 14,
            max_likes: 20,
            seed,
            ..Default::default()
        };
        cases.push((
            format!("social seed {seed}"),
            config.generate(),
            config.likes_ranking(),
        ));
        let ends = Ranking::sum(vars(&["x1", "x3"]));
        cases.push((
            format!("self-join seed {seed}"),
            self_join_instance(seed),
            ends.clone(),
        ));
        cases.push((format!("fork seed {seed}"), fork_instance(seed), ends));
    }
    let mut rng = StdRng::seed_from_u64(0xd1ad);
    let mut drawn = 0;
    while drawn < 80 {
        let instance = random_acyclic_instance(&mut rng);
        let variables = instance.query().variables();
        let weighted: Vec<Variable> = (0..rng.random_range(1..=3usize))
            .map(|_| variables[rng.random_range(0..variables.len())].clone())
            .collect();
        let renamed = qjoin_query::self_join::eliminate_self_joins(&instance).unwrap();
        if find_adjacent_cover(renamed.query(), &weighted).is_some() {
            let name = format!("random {drawn}: {} SUM{weighted:?}", instance.query());
            cases.push((name, instance, Ranking::sum(weighted)));
            drawn += 1;
        }
    }
    let mut reach = Reach::default();
    for pool in [qjoin_par::Pool::new(1), qjoin_par::Pool::new(4)] {
        for (seed, (name, instance, ranking)) in cases.iter().enumerate() {
            let context = format!("{name} T={}", pool.threads());
            qjoin_par::with_pool(&pool, || {
                assert_windows_derive_fresh_contexts(
                    instance,
                    ranking,
                    seed as u64,
                    &mut reach,
                    &context,
                )
            });
        }
    }
    assert!(
        reach.single > 100 && reach.pair > 200 && reach.provenance > 100 && reach.lost_members > 20,
        "{reach:?}"
    );
}

/// Two plans over clones of one instance share its exec memo, so its one template
/// slot: SUM(l2, l3) covers Share–Attend, SUM(u1, l2) Admin–Share. Solved
/// alternately, each plan must trim with its own ranking's template and answer
/// like the row reference, bit for bit. Fails if a template is reused for a
/// ranking it was not built for.
#[test]
fn the_template_is_keyed_by_ranking() {
    let config = SocialConfig {
        rows_per_relation: 120,
        seed: 5,
        ..Default::default()
    };
    let instance = config.generate();
    let encoded = EncodedInstance::from_instance(&instance).unwrap();
    let rankings = [config.likes_ranking(), Ranking::sum(vars(&["u1", "l2"]))];
    let covers: Vec<(usize, usize)> = (rankings.iter())
        .map(|r| {
            find_adjacent_cover(encoded.query(), r.weighted_vars())
                .unwrap()
                .atoms
        })
        .collect();
    assert_ne!(
        covers[0], covers[1],
        "the two rankings need different covers"
    );
    let plans: Vec<Plan> = (rankings.iter())
        .map(|r| Plan::prepare(encoded.clone(), r.clone()).unwrap())
        .collect();
    let mut trimmed = 0;
    for i in 0..20 {
        let phi = (i as f64 + 0.5) / 20.0;
        for (plan, ranking) in plans.iter().zip(&rankings) {
            let context = format!("{ranking:?} φ={phi}");
            let ours = plan
                .solve(&[phi], Accuracy::Exact, &NoopTracer)
                .unwrap()
                .remove(0);
            let options = PivotingOptions::default();
            let row = quantile_by_pivoting(&instance, ranking, phi, &AdjacentSumTrimmer, &options);
            let row = row.unwrap();
            assert_eq!(ours.answer, row.answer, "{context}: answer");
            let bits = |r: &QuantileResult| r.weight.as_num().unwrap().to_bits();
            assert_eq!(bits(&ours), bits(&row), "{context}: weight");
            assert_eq!(ours.iterations, row.iterations, "{context}: iterations");
            trimmed += usize::from(ours.iterations > 1);
        }
    }
    assert!(trimmed > 20, "{trimmed} solves trimmed");
}

/// The template lives in its instance's memo and holds no handle on it: when the
/// last clone of a generation's instance drops, its template goes too.
#[test]
fn a_template_drops_with_its_instance() {
    let instance = path_instance(2, 3);
    let ranking = Ranking::sum(instance.query().variables());
    let encoded = EncodedInstance::from_instance(&instance).unwrap();
    let backend = EncodedBackend::new(&encoded, &ranking);
    let bound = |w: f64| WeightBound::Finite(qjoin_ranking::Weight::num(w));
    let trimmed = backend.trim_between(&encoded, &bound(10.0), &bound(30.0), CmpOp::Lt);
    let template = Arc::downgrade(&encoded.exec_memo().get::<DyadicTemplate>().unwrap());
    assert!(template.upgrade().is_some());
    drop((trimmed, encoded));
    assert!(
        template.upgrade().is_none(),
        "the template outlived its instance"
    );
}
