//! The partial-SUM dichotomy of Theorem 5.6, and the search for join trees in which
//! the weighted variables sit on at most two adjacent nodes (Lemma D.1).
//!
//! For a self-join-free JQ `Q` with SUM over the variables `U_w`, the %JQ problem is
//! quasilinear iff
//!
//! 1. `H(Q)` is acyclic,
//! 2. every independent subset of `U_w` has size at most 2, and
//! 3. every chordless path between two `U_w` variables has at most 3 vertices.
//!
//! Lemma D.1 shows these conditions are equivalent to the existence of a join tree in
//! which `U_w` is covered by one node or by two *adjacent* nodes — which is exactly
//! what the adjacent-node SUM trimming needs. [`classify_partial_sum`] evaluates the
//! graph-theoretic conditions (producing a witness on the negative side), while
//! [`find_adjacent_cover`] performs the constructive search; their agreement on small
//! queries is itself checked by property tests.

use qjoin_query::join_tree::{enumerate_join_trees, MAX_ENUMERATION_ATOMS};
use qjoin_query::{acyclicity, JoinQuery, JoinTree, Variable};
use std::collections::BTreeSet;

/// A join tree in which all weighted variables appear on `atoms.0`, or on `atoms.0`
/// together with the adjacent node `atoms.1`.
#[derive(Clone, Debug)]
pub struct AdjacentCover {
    /// The one or two atom indices covering the weighted variables. Both components
    /// are equal when a single atom suffices.
    pub atoms: (usize, usize),
    /// A join tree of the query in which the two atoms are adjacent.
    pub tree: JoinTree,
}

impl AdjacentCover {
    /// True when a single atom covers all weighted variables.
    pub fn is_single_atom(&self) -> bool {
        self.atoms.0 == self.atoms.1
    }
}

/// The outcome of classifying a (query, weighted-variable-set) pair under Theorem 5.6.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SumClassification {
    /// All weighted variables occur in one atom: trimming is a linear-time filter.
    TractableSingleAtom {
        /// Index of the covering atom.
        atom: usize,
    },
    /// The weighted variables are covered by two atoms that are adjacent in some join
    /// tree: trimming uses the `O(n log n)` construction of Lemma 5.5.
    TractableAdjacentPair {
        /// Indices of the two covering atoms.
        atoms: (usize, usize),
    },
    /// The query is cyclic; even deciding answer existence is not quasilinear under
    /// the Hyperclique hypothesis.
    IntractableCyclic,
    /// Three pairwise non-adjacent weighted variables exist; intractable under 3SUM.
    IntractableIndependentSet(Vec<Variable>),
    /// A chordless path with at least four vertices connects two weighted variables;
    /// intractable under Hyperclique via the triangle-detection reduction.
    IntractableChordlessPath(Vec<Variable>),
    /// The query exceeds the exhaustive join-tree search limit, so the constructive
    /// cover could not be confirmed.
    UnknownTooLarge,
}

impl SumClassification {
    /// True if the classification is on the tractable side of the dichotomy.
    pub fn is_tractable(&self) -> bool {
        matches!(
            self,
            SumClassification::TractableSingleAtom { .. }
                | SumClassification::TractableAdjacentPair { .. }
        )
    }
}

/// Searches for a join tree in which the weighted variables are covered by one node or
/// by two adjacent nodes. Exhaustive over join trees for queries with at most
/// [`MAX_ENUMERATION_ATOMS`] atoms; returns `None` for larger queries unless a single
/// atom covers the variables.
pub fn find_adjacent_cover(query: &JoinQuery, weighted: &[Variable]) -> Option<AdjacentCover> {
    let weighted_in_query: BTreeSet<&Variable> = weighted
        .iter()
        .filter(|v| query.contains_variable(v))
        .collect();

    // Single-atom cover.
    for (idx, atom) in query.atoms().iter().enumerate() {
        if weighted_in_query.iter().all(|v| atom.contains(v)) {
            let tree = acyclicity::gyo_join_tree(query)?;
            return Some(AdjacentCover {
                atoms: (idx, idx),
                tree,
            });
        }
    }

    // Pairs of atoms that jointly cover the weighted variables, adjacent in some tree.
    let covering_pairs: Vec<(usize, usize)> = (0..query.num_atoms())
        .flat_map(|i| ((i + 1)..query.num_atoms()).map(move |j| (i, j)))
        .filter(|&(i, j)| {
            weighted_in_query
                .iter()
                .all(|v| query.atom(i).contains(v) || query.atom(j).contains(v))
        })
        .collect();
    if covering_pairs.is_empty() || query.num_atoms() > MAX_ENUMERATION_ATOMS {
        return None;
    }
    for tree in enumerate_join_trees(query) {
        let adjacent: BTreeSet<(usize, usize)> = tree
            .adjacent_pairs()
            .into_iter()
            .map(|(a, b)| {
                let (a, b) = (tree.node(a).atom_index, tree.node(b).atom_index);
                (a.min(b), a.max(b))
            })
            .collect();
        for &(i, j) in &covering_pairs {
            if adjacent.contains(&(i, j)) {
                return Some(AdjacentCover {
                    atoms: (i, j),
                    tree,
                });
            }
        }
    }
    None
}

/// Classifies a (query, weighted variables) pair according to Theorem 5.6.
pub fn classify_partial_sum(query: &JoinQuery, weighted: &[Variable]) -> SumClassification {
    if acyclicity::gyo_join_tree(query).is_none() {
        return SumClassification::IntractableCyclic;
    }
    let hypergraph = query.hypergraph();
    let weighted_in_query: Vec<Variable> = {
        let mut seen = BTreeSet::new();
        weighted
            .iter()
            .filter(|v| query.contains_variable(v) && seen.insert((*v).clone()))
            .cloned()
            .collect()
    };

    // Condition 2: independent subsets of size 3 witness intractability.
    if let Some(witness) = independent_triple(&hypergraph, &weighted_in_query) {
        return SumClassification::IntractableIndependentSet(witness);
    }
    // Condition 3: chordless paths of 4 or more vertices witness intractability.
    if let Some(path) = long_chordless_path(&hypergraph, &weighted_in_query) {
        return SumClassification::IntractableChordlessPath(path);
    }
    // Tractable side: find the constructive cover guaranteed by Lemma D.1.
    match find_adjacent_cover(query, &weighted_in_query) {
        Some(cover) if cover.is_single_atom() => SumClassification::TractableSingleAtom {
            atom: cover.atoms.0,
        },
        Some(cover) => SumClassification::TractableAdjacentPair { atoms: cover.atoms },
        None => SumClassification::UnknownTooLarge,
    }
}

/// Finds three pairwise non-adjacent weighted variables, if any exist.
fn independent_triple(
    hypergraph: &qjoin_query::Hypergraph,
    weighted: &[Variable],
) -> Option<Vec<Variable>> {
    let n = weighted.len();
    for i in 0..n {
        for j in (i + 1)..n {
            if hypergraph.adjacent(&weighted[i], &weighted[j]) {
                continue;
            }
            for k in (j + 1)..n {
                if !hypergraph.adjacent(&weighted[i], &weighted[k])
                    && !hypergraph.adjacent(&weighted[j], &weighted[k])
                {
                    return Some(vec![
                        weighted[i].clone(),
                        weighted[j].clone(),
                        weighted[k].clone(),
                    ]);
                }
            }
        }
    }
    None
}

/// Finds a chordless path with at least 4 vertices between two weighted variables,
/// if one exists.
fn long_chordless_path(
    hypergraph: &qjoin_query::Hypergraph,
    weighted: &[Variable],
) -> Option<Vec<Variable>> {
    for i in 0..weighted.len() {
        for j in (i + 1)..weighted.len() {
            for path in hypergraph.chordless_paths(&weighted[i], &weighted[j]) {
                if path.len() >= 4 {
                    return Some(path);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_query::query::{path_query, social_network_query, star_query, triangle_query};
    use qjoin_query::variable::vars;
    use qjoin_query::Atom;

    #[test]
    fn binary_join_full_sum_is_tractable() {
        // The 2-path with full SUM: covered by the pair (R1, R2), which are adjacent.
        let q = path_query(2);
        let c = classify_partial_sum(&q, &q.variables());
        assert_eq!(
            c,
            SumClassification::TractableAdjacentPair { atoms: (0, 1) }
        );
    }

    #[test]
    fn three_path_full_sum_is_intractable() {
        // The paper's canonical intractable case: 3 atoms, full SUM.
        let q = path_query(3);
        let c = classify_partial_sum(&q, &q.variables());
        assert!(
            matches!(c, SumClassification::IntractableChordlessPath(_)),
            "{c:?}"
        );
        assert!(!c.is_tractable());
    }

    #[test]
    fn three_path_partial_sum_is_tractable() {
        // The motivating example of Section 5.3: U_w = {x1, x2, x3}.
        let q = path_query(3);
        let c = classify_partial_sum(&q, &vars(&["x1", "x2", "x3"]));
        assert_eq!(
            c,
            SumClassification::TractableAdjacentPair { atoms: (0, 1) }
        );
    }

    #[test]
    fn single_atom_sums_are_tractable_filters() {
        let q = path_query(3);
        let c = classify_partial_sum(&q, &vars(&["x2", "x3"]));
        assert_eq!(c, SumClassification::TractableSingleAtom { atom: 1 });
    }

    #[test]
    fn social_network_example_is_tractable() {
        // SUM(l2 + l3) from the introduction: l2 ∈ Share, l3 ∈ Attend, which share the
        // event variable and are adjacent in some join tree.
        let q = social_network_query();
        let c = classify_partial_sum(&q, &vars(&["l2", "l3"]));
        assert_eq!(
            c,
            SumClassification::TractableAdjacentPair { atoms: (1, 2) }
        );
    }

    #[test]
    fn cyclic_queries_are_intractable() {
        let q = triangle_query();
        assert_eq!(
            classify_partial_sum(&q, &q.variables()),
            SumClassification::IntractableCyclic
        );
    }

    #[test]
    fn star_leaves_form_independent_sets() {
        // SUM over three leaves of a star: {x1, x2, x3} is an independent set of
        // size 3 → intractable.
        let q = star_query(3);
        let c = classify_partial_sum(&q, &vars(&["x1", "x2", "x3"]));
        assert!(matches!(c, SumClassification::IntractableIndependentSet(w) if w.len() == 3));
        // Two leaves only: tractable? x1 and x2 are non-adjacent but the chordless
        // path x1-x0-x2 has 3 vertices, and R1, R2 are adjacent in some join tree.
        let c2 = classify_partial_sum(&q, &vars(&["x1", "x2"]));
        assert_eq!(
            c2,
            SumClassification::TractableAdjacentPair { atoms: (0, 1) }
        );
    }

    #[test]
    fn four_path_with_endpoints_only_is_intractable() {
        // U_w = {x1, x5} on the 4-path: chordless path of 5 vertices between them.
        let q = path_query(4);
        let c = classify_partial_sum(&q, &vars(&["x1", "x5"]));
        assert!(matches!(c, SumClassification::IntractableChordlessPath(p) if p.len() >= 4));
    }

    #[test]
    fn find_adjacent_cover_reports_trees_where_atoms_touch() {
        let q = path_query(3);
        let cover = find_adjacent_cover(&q, &vars(&["x1", "x2", "x3"])).unwrap();
        assert_eq!(cover.atoms, (0, 1));
        assert!(!cover.is_single_atom());
        assert!(cover.tree.satisfies_running_intersection(&q));
        let adjacent: Vec<(usize, usize)> = cover
            .tree
            .adjacent_pairs()
            .into_iter()
            .map(|(a, b)| {
                let (a, b) = (cover.tree.node(a).atom_index, cover.tree.node(b).atom_index);
                (a.min(b), a.max(b))
            })
            .collect();
        assert!(adjacent.contains(&(0, 1)));
    }

    #[test]
    fn find_adjacent_cover_fails_when_no_pair_covers() {
        let q = path_query(4);
        assert!(find_adjacent_cover(&q, &q.variables()).is_none());
    }

    #[test]
    fn weighted_variables_missing_from_the_query_are_ignored() {
        let q = path_query(2);
        let c = classify_partial_sum(&q, &vars(&["x1", "nonexistent"]));
        assert_eq!(c, SumClassification::TractableSingleAtom { atom: 0 });
    }

    #[test]
    fn lemma_d1_equivalence_on_a_catalogue_of_queries() {
        // For every acyclic query in the catalogue and every subset of its variables,
        // the graph conditions hold iff an adjacent cover exists (Lemma D.1, both
        // directions). This is the paper's equivalence checked exhaustively.
        let catalogue = vec![
            path_query(2),
            path_query(3),
            path_query(4),
            star_query(3),
            star_query(4),
            social_network_query(),
            qjoin_query::query::figure1_query(),
            qjoin_query::JoinQuery::new(vec![
                Atom::from_names("A", &["x", "y", "z"]),
                Atom::from_names("B", &["z", "w"]),
                Atom::from_names("C", &["w", "u"]),
            ]),
        ];
        for q in catalogue {
            let all_vars = q.variables();
            let n = all_vars.len();
            for mask in 1u32..(1 << n) {
                let subset: Vec<Variable> = (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| all_vars[i].clone())
                    .collect();
                let classification = classify_partial_sum(&q, &subset);
                let cover = find_adjacent_cover(&q, &subset);
                match classification {
                    SumClassification::TractableSingleAtom { .. }
                    | SumClassification::TractableAdjacentPair { .. } => {
                        assert!(cover.is_some(), "query {q}, U_w {subset:?}")
                    }
                    SumClassification::IntractableIndependentSet(_)
                    | SumClassification::IntractableChordlessPath(_) => {
                        assert!(cover.is_none(), "query {q}, U_w {subset:?}")
                    }
                    SumClassification::IntractableCyclic | SumClassification::UnknownTooLarge => {
                        panic!("unexpected classification for acyclic catalogue query")
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod paper_case_table {
    use super::*;
    use qjoin_query::query::{path_query, social_network_query, star_query, triangle_query};
    use qjoin_query::variable::vars;
    use qjoin_query::Atom;

    /// The coarse outcome a table row expects from [`classify_partial_sum`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Expected {
        SingleAtom,
        AdjacentPair,
        Cyclic,
        IndependentSet,
        ChordlessPath,
        TooLarge,
    }

    fn outcome(c: &SumClassification) -> Expected {
        match c {
            SumClassification::TractableSingleAtom { .. } => Expected::SingleAtom,
            SumClassification::TractableAdjacentPair { .. } => Expected::AdjacentPair,
            SumClassification::IntractableCyclic => Expected::Cyclic,
            SumClassification::IntractableIndependentSet(_) => Expected::IndependentSet,
            SumClassification::IntractableChordlessPath(_) => Expected::ChordlessPath,
            SumClassification::UnknownTooLarge => Expected::TooLarge,
        }
    }

    /// Every tractable/intractable case of Theorem 5.6 discussed in the paper,
    /// as one table: (description, query, weighted variables, expected outcome).
    #[test]
    fn classify_partial_sum_matches_the_paper_case_table() {
        let table: Vec<(&str, JoinQuery, Vec<Variable>, Expected)> = vec![
            (
                "§5.3: single weighted variable lies in one atom",
                path_query(3),
                vars(&["x2"]),
                Expected::SingleAtom,
            ),
            (
                "§5.3: U_w inside one atom is a linear-time filter",
                path_query(3),
                vars(&["x2", "x3"]),
                Expected::SingleAtom,
            ),
            (
                "§1/§5: full SUM on the binary join is tractable",
                path_query(2),
                path_query(2).variables(),
                Expected::AdjacentPair,
            ),
            (
                "§5.3 motivating example: 3-path with U_w = {x1, x2, x3}",
                path_query(3),
                vars(&["x1", "x2", "x3"]),
                Expected::AdjacentPair,
            ),
            (
                "§1 social network: SUM(l2 + l3) over Share and Attend",
                social_network_query(),
                vars(&["l2", "l3"]),
                Expected::AdjacentPair,
            ),
            (
                "§2.1/§5: cyclic triangle query is intractable outright",
                triangle_query(),
                triangle_query().variables(),
                Expected::Cyclic,
            ),
            (
                "Thm 5.6 cond. 2: three independent star leaves",
                star_query(3),
                vars(&["x1", "x2", "x3"]),
                Expected::IndependentSet,
            ),
            (
                "Thm 5.6 cond. 2: independent {u1, u2, u3} in the social query",
                social_network_query(),
                vars(&["u1", "u2", "u3"]),
                Expected::IndependentSet,
            ),
            (
                "Thm 5.6 cond. 3: full SUM on the 3-path has a 4-vertex chordless path",
                path_query(3),
                path_query(3).variables(),
                Expected::ChordlessPath,
            ),
            (
                "Thm 5.6 cond. 3: endpoints of the 4-path",
                path_query(4),
                vars(&["x1", "x5"]),
                Expected::ChordlessPath,
            ),
            (
                "4-path: {x2, x3, x4} is covered by the adjacent R2, R3",
                path_query(4),
                vars(&["x2", "x3", "x4"]),
                Expected::AdjacentPair,
            ),
            (
                "star: the centre and one leaf lie in one atom",
                star_query(3),
                vars(&["x0", "x1"]),
                Expected::SingleAtom,
            ),
            (
                "social network, full SUM: three pairwise non-adjacent variables",
                social_network_query(),
                social_network_query().variables(),
                Expected::IndependentSet,
            ),
            (
                "three-atom chain with a covering adjacent pair (A, B)",
                JoinQuery::new(vec![
                    Atom::from_names("A", &["x", "y", "z"]),
                    Atom::from_names("B", &["z", "w"]),
                    Atom::from_names("C", &["w", "u"]),
                ]),
                vars(&["x", "w"]),
                Expected::AdjacentPair,
            ),
            (
                "beyond MAX_ENUMERATION_ATOMS the constructive search gives up",
                path_query(MAX_ENUMERATION_ATOMS + 1),
                vars(&["x1", "x2", "x3"]),
                Expected::TooLarge,
            ),
        ];

        for (description, query, weighted, expected) in table {
            let classification = classify_partial_sum(&query, &weighted);
            assert_eq!(
                outcome(&classification),
                expected,
                "{description}: got {classification:?}"
            );
            // The coarse outcome and the tractability flag must agree.
            assert_eq!(
                classification.is_tractable(),
                matches!(expected, Expected::SingleAtom | Expected::AdjacentPair),
                "{description}"
            );
        }
    }
}
