//! Databases: named collections of relations.

use crate::{DataError, Relation, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A database instance `D`: one finite relation per relational symbol.
///
/// The size of a database, written `n` throughout the paper, is the total number of
/// tuples across all relations ([`Database::total_tuples`]). The quantile algorithms
/// repeatedly construct *derived* databases (trimmed instances); those are ordinary
/// [`Database`] values as well, so they can be counted, pivoted, and trimmed again.
///
/// Relations are stored in a [`BTreeMap`] keyed by name so that iteration order is
/// deterministic, which keeps the algorithms reproducible and the tests stable.
///
/// Because [`Relation`] shares its tuple storage behind an `Arc`, cloning a database
/// copies only the map of relation handles — the tuples themselves are shared until a
/// relation is mutated (copy-on-write). Derived databases built by the trimming
/// constructions therefore share every relation they do not rewrite.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Builds a database from an iterator of relations.
    pub fn from_relations(relations: impl IntoIterator<Item = Relation>) -> Result<Self> {
        let mut db = Database::new();
        for r in relations {
            db.add_relation(r)?;
        }
        Ok(db)
    }

    /// Adds a relation; fails if a relation with the same name already exists.
    pub fn add_relation(&mut self, relation: Relation) -> Result<()> {
        if self.relations.contains_key(relation.name()) {
            return Err(DataError::DuplicateRelation(relation.name().to_string()));
        }
        self.relations.insert(relation.name().to_string(), relation);
        Ok(())
    }

    /// Removes (and returns) the relation with the given name, if present.
    pub fn remove_relation(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Looks up a relation by name, mutably.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// True if a relation with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterates over relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Names of all relations, in name order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|s| s.as_str())
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The database size `n`: total number of tuples over all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// True when any relation is empty (the join of a query referencing it is then
    /// trivially empty).
    pub fn has_empty_relation(&self) -> bool {
        self.relations.values().any(|r| r.is_empty())
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Database with {} relations, {} tuples",
            self.num_relations(),
            self.total_tuples()
        )?;
        for r in self.relations.values() {
            write!(f, "{r:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sample_db() -> Database {
        let r = Relation::from_rows("R", &[&[1, 1], &[2, 2]]).unwrap();
        let s = Relation::from_rows("S", &[&[1, 3], &[1, 4], &[1, 5], &[2, 3], &[2, 4]]).unwrap();
        Database::from_relations([r, s]).unwrap()
    }

    #[test]
    fn total_tuples_sums_over_relations() {
        let db = sample_db();
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.total_tuples(), 7);
    }

    #[test]
    fn duplicate_relation_names_are_rejected() {
        let mut db = sample_db();
        let err = db.add_relation(Relation::new("R", 2)).unwrap_err();
        assert!(matches!(err, DataError::DuplicateRelation(name) if name == "R"));
    }

    #[test]
    fn unknown_relation_lookup_errors() {
        let db = sample_db();
        assert!(matches!(
            db.relation("T").unwrap_err(),
            DataError::UnknownRelation(name) if name == "T"
        ));
    }

    #[test]
    fn has_empty_relation_detects_empties() {
        let mut db = sample_db();
        assert!(!db.has_empty_relation());
        db.add_relation(Relation::new("E", 1)).unwrap();
        assert!(db.has_empty_relation());
    }

    #[test]
    fn relation_mut_allows_in_place_updates() {
        let mut db = sample_db();
        db.relation_mut("R")
            .unwrap()
            .push(vec![Value::from(3), Value::from(3)])
            .unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 3);
    }

    #[test]
    fn relations_iterate_in_name_order() {
        let db = sample_db();
        let names: Vec<&str> = db.relation_names().collect();
        assert_eq!(names, vec!["R", "S"]);
    }

    #[test]
    fn remove_relation_returns_it() {
        let mut db = sample_db();
        let r = db.remove_relation("R").unwrap();
        assert_eq!(r.name(), "R");
        assert!(!db.contains("R"));
        assert!(db.remove_relation("R").is_none());
    }
}
