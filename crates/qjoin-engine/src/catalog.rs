//! The engine's catalog: named databases with generation counters.
//!
//! Every database carries a monotonically increasing **generation** that is bumped on
//! replacement. Prepared plans record the generation they were compiled against and
//! result-cache keys embed it, so replacing a database atomically invalidates every
//! cached result derived from the old contents.

use crate::error::EngineError;
use qjoin_data::{Database, EncodedDatabase};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One catalog entry: a shared database and its current generation.
///
/// The database is held behind an [`Arc`]: every prepared plan compiled against this
/// generation shares the same handle, so registering N plans (or recompiling them on
/// replacement) allocates the tuple storage exactly once. The dictionary-coded form
/// is built once per generation too, so every plan's encoded solve path amortizes
/// the encoding pass across all queries of the generation.
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// The database contents, shared with every plan compiled against this generation.
    pub database: Arc<Database>,
    /// The dictionary-coded form of the same generation, which every plan's solves
    /// run on. (A database the encoding cannot index is refused before it gets here.)
    pub encoded: Arc<EncodedDatabase>,
    /// Bumped every time the database is replaced; generation 1 is the initial load.
    pub generation: u64,
}

/// A name → database map with replace-and-invalidate semantics.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    entries: BTreeMap<String, CatalogEntry>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a database, with its already-encoded form, under a fresh name. Fails if
    /// the name is taken. (The engine encodes before it takes the state lock.)
    pub fn create(
        &mut self,
        name: &str,
        database: Arc<Database>,
        encoded: Arc<EncodedDatabase>,
    ) -> Result<(), EngineError> {
        if self.entries.contains_key(name) {
            return Err(EngineError::DuplicateDatabase(name.to_string()));
        }
        let entry = CatalogEntry {
            database,
            encoded,
            generation: 1,
        };
        self.entries.insert(name.to_string(), entry);
        Ok(())
    }

    /// Replaces an existing database and its encoded form, bumping the generation.
    /// Returns the previous generation's entry, so the caller decides where its
    /// storage is dropped. Fails if the name is unknown.
    pub fn replace(
        &mut self,
        name: &str,
        database: Arc<Database>,
        encoded: Arc<EncodedDatabase>,
    ) -> Result<CatalogEntry, EngineError> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))?;
        let generation = entry.generation + 1;
        let next = CatalogEntry {
            database,
            encoded,
            generation,
        };
        Ok(std::mem::replace(entry, next))
    }

    /// Looks up a database by name.
    pub fn get(&self, name: &str) -> Result<&CatalogEntry, EngineError> {
        self.entries
            .get(name)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))
    }

    /// True when a database with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Iterates over `(name, entry)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CatalogEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of catalogued databases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_data::Relation;

    fn db(rows: &[&[i64]]) -> Arc<Database> {
        Arc::new(Database::from_relations([Relation::from_rows("R", rows).unwrap()]).unwrap())
    }

    /// The encoded form the engine hands over beside a database.
    fn coded(db: &Database) -> Arc<EncodedDatabase> {
        Arc::new(EncodedDatabase::encode(db).unwrap())
    }

    #[test]
    fn create_then_replace_bumps_generation() {
        let mut catalog = Catalog::new();
        let (first, second) = (db(&[&[1, 2]]), db(&[&[3, 4], &[5, 6]]));
        catalog.create("d", first.clone(), coded(&first)).unwrap();
        assert_eq!(catalog.get("d").unwrap().generation, 1);
        let previous = catalog
            .replace("d", second.clone(), coded(&second))
            .unwrap();
        assert!(Arc::ptr_eq(&previous.database, &first));
        assert_eq!(previous.generation, 1);
        assert_eq!(catalog.get("d").unwrap().generation, 2);
        assert_eq!(
            catalog
                .get("d")
                .unwrap()
                .database
                .relation("R")
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn duplicate_create_and_unknown_replace_fail() {
        let mut catalog = Catalog::new();
        let d = db(&[&[1, 2]]);
        catalog.create("d", d.clone(), coded(&d)).unwrap();
        assert!(matches!(
            catalog.create("d", d.clone(), coded(&d)).unwrap_err(),
            EngineError::DuplicateDatabase(_)
        ));
        assert!(matches!(
            catalog
                .replace("missing", d.clone(), coded(&d))
                .unwrap_err(),
            EngineError::UnknownDatabase(_)
        ));
        assert!(matches!(
            catalog.get("missing").unwrap_err(),
            EngineError::UnknownDatabase(_)
        ));
    }
}
