//! Encoded instances: a join query paired with dictionary-coded relation views.
//!
//! [`EncodedInstance`] is the encoded-path analogue of [`Instance`]: the same
//! [`JoinQuery`], but every atom is interpreted by an
//! [`EncodedRelation`] — a selection-vector view over
//! shared, column-major `u64` code columns — instead of a materialized
//! [`Relation`](qjoin_data::Relation). The trimming constructions of the quantile
//! driver rewrite encoded instances into encoded instances (new views, possibly a new
//! query with synthesized variables); values are decoded back through the shared
//! [`Dictionary`] only at the answer boundary.
//!
//! Synthesized variables (partition tags `x_p`, dyadic-interval variables `v_sum`)
//! live in a *separate* code space from dictionary codes: their codes are chosen by
//! the construction that introduces them (and are order-compatible with the row
//! path's corresponding [`Value`](qjoin_data::Value)s). This is sound because a
//! synthesized variable only ever occurs in synthesized columns, so its codes are
//! never compared against dictionary codes.

use crate::{Instance, JoinQuery, QueryError, Result};
use qjoin_data::{Dictionary, EncodedDatabase, EncodedRelation};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A write-once memo slot the execution layer uses to cache per-instance derived
/// structures (e.g. its reduced join-tree context) without this crate depending on
/// their types. Clones of an instance share the slot — sound because instances are
/// immutable after construction, so every clone derives the identical structure.
/// Rewrites ([`EncodedInstance::with_rewritten`] and friends) construct fresh
/// instances and therefore fresh, empty slots.
#[derive(Default)]
pub struct ExecMemo(OnceLock<Arc<dyn Any + Send + Sync>>);

impl ExecMemo {
    /// The cached structure, if one of type `T` has been stored.
    pub fn get<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.0
            .get()
            .and_then(|a| Arc::clone(a).downcast::<T>().ok())
    }

    /// Stores a structure; the first store wins and later stores are dropped
    /// (concurrent initializers build identical values, so either is fine).
    pub fn set<T: Any + Send + Sync>(&self, value: Arc<T>) {
        let _ = self.0.set(value);
    }
}

impl std::fmt::Debug for ExecMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ExecMemo")
            .field(&self.0.get().map(|_| "<cached>"))
            .finish()
    }
}

/// A join query paired with encoded relation views and the dictionary they decode
/// through. See the module docs.
#[derive(Clone, Debug)]
pub struct EncodedInstance {
    query: JoinQuery,
    dictionary: Arc<Dictionary>,
    relations: BTreeMap<String, EncodedRelation>,
    memo: Arc<ExecMemo>,
}

impl EncodedInstance {
    /// Creates and validates an encoded instance: every atom must reference an
    /// existing view of matching arity.
    pub fn new(
        query: JoinQuery,
        dictionary: Arc<Dictionary>,
        relations: BTreeMap<String, EncodedRelation>,
    ) -> Result<Self> {
        if query.num_atoms() == 0 {
            return Err(QueryError::EmptyQuery);
        }
        for atom in query.atoms() {
            let rel = relations
                .get(atom.relation())
                .ok_or_else(|| QueryError::MissingRelation(atom.relation().to_string()))?;
            if rel.arity() != atom.arity() {
                return Err(QueryError::AtomArityMismatch {
                    relation: atom.relation().to_string(),
                    atom_arity: atom.arity(),
                    relation_arity: rel.arity(),
                });
            }
        }
        Ok(EncodedInstance {
            query,
            dictionary,
            relations,
            memo: Arc::new(ExecMemo::default()),
        })
    }

    /// Encodes a row instance: builds the dictionary and column encoding of its
    /// database, then full views for every relation.
    pub fn from_instance(instance: &Instance) -> Result<Self> {
        let encoded = EncodedDatabase::encode(instance.database())?;
        Self::from_encoded_database(instance.query().clone(), &encoded)
    }

    /// Builds an encoded instance over an already-encoded database (the engine path:
    /// the encoding is built once per catalog generation and shared by every plan).
    ///
    /// *Every* relation of the database gets a view — including ones the query does
    /// not reference — so that [`EncodedInstance::total_rows`] equals the row path's
    /// [`Instance::database_size`] and the quantile driver's materialization
    /// threshold is identical on both paths.
    pub fn from_encoded_database(query: JoinQuery, db: &EncodedDatabase) -> Result<Self> {
        let relations: BTreeMap<String, EncodedRelation> = db
            .relations()
            .map(|(name, base)| (name.to_string(), EncodedRelation::full(Arc::clone(base))))
            .collect();
        Self::new(query, Arc::clone(db.dictionary()), relations)
    }

    /// The query.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The shared dictionary.
    pub fn dictionary(&self) -> &Arc<Dictionary> {
        &self.dictionary
    }

    /// The instance's execution memo slot (see [`ExecMemo`]).
    pub fn exec_memo(&self) -> &ExecMemo {
        &self.memo
    }

    /// The view interpreting the atom at `atom_index`.
    pub fn relation_of_atom(&self, atom_index: usize) -> &EncodedRelation {
        self.relations
            .get(self.query.atom(atom_index).relation())
            .expect("validated at construction")
    }

    /// Looks up a view by relation name.
    pub fn relation(&self, name: &str) -> Option<&EncodedRelation> {
        self.relations.get(name)
    }

    /// Iterates over the views in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &EncodedRelation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// The database size `n`: total selected rows across all views. Instances built
    /// by [`EncodedInstance::from_instance`] / [`EncodedInstance::from_encoded_database`]
    /// carry a view per database relation (referenced by the query or not), so this
    /// equals the row instance's [`Instance::database_size`] and the quantile
    /// driver's materialization threshold is identical on both paths.
    pub fn total_rows(&self) -> usize {
        self.relations.values().map(EncodedRelation::len).sum()
    }

    /// A quick upper bound on the number of query answers: the product of the
    /// atoms' view lengths (`n^ℓ` in the worst case). `None` on overflow of `u128`.
    pub fn answer_count_upper_bound(&self) -> Option<u128> {
        let mut sizes = (0..self.query.num_atoms()).map(|atom| self.relation_of_atom(atom).len());
        sizes.try_fold(1u128, |bound, size| bound.checked_mul(size as u128))
    }

    /// A copy with the query and some relations replaced (the shape every encoded
    /// trim produces). Relations not mentioned in `replaced` are carried over by
    /// handle.
    pub fn with_rewritten(
        &self,
        query: JoinQuery,
        replaced: impl IntoIterator<Item = EncodedRelation>,
    ) -> Result<Self> {
        let mut relations = self.relations.clone();
        for rel in replaced {
            relations.insert(rel.name().to_string(), rel);
        }
        Self::new(query, Arc::clone(&self.dictionary), relations)
    }

    /// An instance with the same query whose answer set is empty (every view
    /// cleared). The encoded analogue of the trim layer's `empty_copy`.
    pub fn empty_copy(&self) -> Self {
        EncodedInstance {
            query: self.query.clone(),
            dictionary: Arc::clone(&self.dictionary),
            relations: self
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), r.cleared()))
                .collect(),
            memo: Arc::new(ExecMemo::default()),
        }
    }

    /// Rewrites the instance so that no relational symbol occurs in more than one
    /// atom, mirroring [`crate::self_join::eliminate_self_joins`]: later occurrences
    /// get fresh names (`R@2`, `R@3`, ...) bound to renamed views sharing the
    /// original's storage. Self-join-free instances are returned unchanged.
    pub fn eliminate_self_joins(&self) -> Result<Self> {
        if !self.query.has_self_joins() {
            return Ok(self.clone());
        }
        let mut occurrences: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut relations = self.relations.clone();
        let mut new_atoms = Vec::with_capacity(self.query.num_atoms());
        for atom in self.query.atoms() {
            let count = occurrences.entry(atom.relation().to_string()).or_insert(0);
            *count += 1;
            if *count == 1 {
                new_atoms.push(atom.clone());
            } else {
                let base = format!("{}@{}", atom.relation(), count);
                let fresh = fresh_relation_name(&relations, &base);
                let copy = self.relations[atom.relation()].renamed(fresh.clone());
                relations.insert(fresh.clone(), copy);
                new_atoms.push(atom.renamed(fresh));
            }
        }
        Self::new(
            JoinQuery::new(new_atoms),
            Arc::clone(&self.dictionary),
            relations,
        )
    }
}

/// Mirrors `Database::fresh_name` for the encoded relation map.
pub(crate) fn fresh_relation_name(
    relations: &BTreeMap<String, EncodedRelation>,
    base: &str,
) -> String {
    if !relations.contains_key(base) {
        return base.to_string();
    }
    let mut i = 1usize;
    loop {
        let candidate = format!("{base}#{i}");
        if !relations.contains_key(&candidate) {
            return candidate;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::path_query;
    use crate::Atom;
    use qjoin_data::{Database, Relation};

    fn two_path_instance() -> Instance {
        let r1 = Relation::from_rows("R1", &[&[1, 1], &[2, 2]]).unwrap();
        let r2 = Relation::from_rows("R2", &[&[1, 10], &[2, 20]]).unwrap();
        Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap()
    }

    #[test]
    fn encoding_preserves_sizes_and_decodes() {
        let inst = two_path_instance();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        assert_eq!(enc.total_rows(), inst.database_size());
        let r1 = enc.relation("R1").unwrap();
        let original = inst.database().relation("R1").unwrap();
        for row in 0..r1.len() {
            for col in 0..2 {
                assert_eq!(
                    enc.dictionary().decode(r1.code(0, row, col)),
                    original.tuples()[row].get(col).unwrap()
                );
            }
        }
    }

    #[test]
    fn answer_count_upper_bound_is_the_product_of_view_lengths() {
        let enc = EncodedInstance::from_instance(&two_path_instance()).unwrap();
        assert_eq!(enc.answer_count_upper_bound(), Some(4));
        let filtered = enc.relation("R1").unwrap().filtered(|_, row| row == 0);
        let narrowed = enc.with_rewritten(enc.query().clone(), [filtered]).unwrap();
        assert_eq!(narrowed.answer_count_upper_bound(), Some(2));

        let mut db = Database::new();
        let mut atoms = Vec::new();
        for i in 0..3 {
            let mut rel = Relation::new(format!("R{i}"), 1);
            for j in 0..10i64 {
                rel.push(vec![j.into()]).unwrap();
            }
            db.add_relation(rel).unwrap();
            atoms.push(Atom::from_names(format!("R{i}"), &["x"]));
        }
        let inst = Instance::new(JoinQuery::new(atoms), db).unwrap();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        assert_eq!(enc.answer_count_upper_bound(), Some(1000));
    }

    #[test]
    fn answer_count_upper_bound_handles_overflow() {
        // `atoms` variable-disjoint atoms over one two-row relation: 2^atoms answers,
        // and u128 holds 2^127 but not 2^128.
        let w = Relation::from_rows("W", &[&[0], &[1]]).unwrap();
        let encoded = EncodedDatabase::encode(&Database::from_relations([w]).unwrap()).unwrap();
        let wide = |atoms: usize| {
            let atoms = (0..atoms).map(|i| Atom::from_names("W", &[&format!("v{i}")]));
            EncodedInstance::from_encoded_database(JoinQuery::new(atoms.collect()), &encoded)
                .unwrap()
        };
        assert_eq!(wide(127).answer_count_upper_bound(), Some(1 << 127));
        assert_eq!(wide(128).answer_count_upper_bound(), None);
    }

    #[test]
    fn validation_catches_arity_mismatch() {
        let inst = two_path_instance();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        let bad_query = JoinQuery::new(vec![Atom::from_names("R1", &["x", "y", "z"])]);
        let relations: BTreeMap<String, EncodedRelation> = enc
            .relations()
            .map(|(n, r)| (n.to_string(), r.clone()))
            .collect();
        assert!(matches!(
            EncodedInstance::new(bad_query, Arc::clone(enc.dictionary()), relations).unwrap_err(),
            QueryError::AtomArityMismatch { .. }
        ));
    }

    #[test]
    fn empty_copy_clears_every_view() {
        let inst = two_path_instance();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        let empty = enc.empty_copy();
        assert_eq!(empty.total_rows(), 0);
        assert_eq!(empty.query(), enc.query());
    }

    #[test]
    fn self_join_elimination_mirrors_row_path() {
        let r = Relation::from_rows("R", &[&[1, 2], &[2, 3]]).unwrap();
        let q = JoinQuery::new(vec![
            Atom::from_names("R", &["x", "y"]),
            Atom::from_names("R", &["y", "z"]),
        ]);
        let inst = Instance::new(q, Database::from_relations([r]).unwrap()).unwrap();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        let rewritten = enc.eliminate_self_joins().unwrap();
        let row_rewritten = crate::self_join::eliminate_self_joins(&inst).unwrap();
        assert_eq!(rewritten.query(), row_rewritten.query());
        // The fresh view shares the original's base columns.
        let fresh_name = rewritten.query().atom(1).relation();
        assert!(rewritten
            .relation(fresh_name)
            .unwrap()
            .shares_base_with(enc.relation("R").unwrap()));
    }

    #[test]
    fn with_rewritten_replaces_and_shares() {
        let inst = two_path_instance();
        let enc = EncodedInstance::from_instance(&inst).unwrap();
        let filtered = enc.relation("R1").unwrap().filtered(|_, row| row == 0);
        let out = enc.with_rewritten(enc.query().clone(), [filtered]).unwrap();
        assert_eq!(out.relation("R1").unwrap().len(), 1);
        assert_eq!(out.relation("R2").unwrap().len(), 2);
    }
}
