//! The engine's catalog: named databases with generation counters.
//!
//! Every database carries a monotonically increasing **generation** that is bumped on
//! replacement. Prepared plans record the generation they were compiled against and
//! result-cache keys embed it, so replacing a database atomically invalidates every
//! cached result derived from the old contents.
//!
//! What a generation keeps resident is decided here: its dictionary-coded form and
//! nothing else. The caller's row database is dropped once it is encoded.

use crate::error::EngineError;
use qjoin_data::EncodedDatabase;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One catalog entry: a generation's dictionary-coded database and its number.
///
/// The encoded database is held behind an [`Arc`]: every prepared plan compiled
/// against this generation shares its code columns by handle, so registering N plans
/// (or recompiling them on replacement) encodes the data exactly once.
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// The dictionary-coded database, the generation's only copy of its data, which
    /// every plan's solves run on. (A database the encoding cannot index is refused
    /// before it gets here.)
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

    /// Adds an encoded database under a fresh name. Fails if the name is taken. (The
    /// engine encodes before it takes the state lock.)
    pub fn create(&mut self, name: &str, encoded: Arc<EncodedDatabase>) -> Result<(), EngineError> {
        if self.entries.contains_key(name) {
            return Err(EngineError::DuplicateDatabase(name.to_string()));
        }
        let entry = CatalogEntry {
            encoded,
            generation: 1,
        };
        self.entries.insert(name.to_string(), entry);
        Ok(())
    }

    /// Replaces an existing database's encoded form, bumping the generation. Returns
    /// the previous generation's entry, so the caller decides where its storage is
    /// dropped. Fails if the name is unknown.
    pub fn replace(
        &mut self,
        name: &str,
        encoded: Arc<EncodedDatabase>,
    ) -> Result<CatalogEntry, EngineError> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))?;
        let generation = entry.generation + 1;
        Ok(std::mem::replace(
            entry,
            CatalogEntry {
                encoded,
                generation,
            },
        ))
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
    use qjoin_data::{Database, Relation};

    /// The encoded form the engine catalogs in place of a database.
    fn coded(rows: &[&[i64]]) -> Arc<EncodedDatabase> {
        let db = Database::from_relations([Relation::from_rows("R", rows).unwrap()]).unwrap();
        Arc::new(EncodedDatabase::encode(&db).unwrap())
    }

    #[test]
    fn create_then_replace_bumps_generation() {
        let mut catalog = Catalog::new();
        let (first, second) = (coded(&[&[1, 2]]), coded(&[&[3, 4], &[5, 6]]));
        catalog.create("d", Arc::clone(&first)).unwrap();
        assert_eq!(catalog.get("d").unwrap().generation, 1);
        let previous = catalog.replace("d", second).unwrap();
        assert!(Arc::ptr_eq(&previous.encoded, &first));
        assert_eq!(previous.generation, 1);
        let current = catalog.get("d").unwrap();
        assert_eq!(current.generation, 2);
        assert_eq!(current.encoded.relation("R").unwrap().len(), 2);
    }

    #[test]
    fn duplicate_create_and_unknown_replace_fail() {
        let mut catalog = Catalog::new();
        let d = coded(&[&[1, 2]]);
        catalog.create("d", Arc::clone(&d)).unwrap();
        assert!(matches!(
            catalog.create("d", Arc::clone(&d)).unwrap_err(),
            EngineError::DuplicateDatabase(_)
        ));
        assert!(matches!(
            catalog.replace("missing", d).unwrap_err(),
            EngineError::UnknownDatabase(_)
        ));
        assert!(matches!(
            catalog.get("missing").unwrap_err(),
            EngineError::UnknownDatabase(_)
        ));
    }
}
