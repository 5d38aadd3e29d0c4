//! Dictionary encoding: dense integer codes for [`Value`]s plus column-major,
//! selection-vector relation views.
//!
//! The trimming recursion of the quantile driver re-examines the same base tuples
//! dozens of times per solve. In the row representation every round re-hashes
//! [`Value`] enums (through the `Arc` of every string) and allocates a projected
//! [`Tuple`](crate::Tuple) per join-key lookup. This module provides the
//! encoded substrate that the hot path runs on instead:
//!
//! * [`Dictionary`] — an **order-preserving** interner: every distinct value of a
//!   database is assigned a dense `u64` code such that `code(a) < code(b)` iff
//!   `a < b`. Equality and ordering of codes therefore coincide with equality and
//!   ordering of the values they stand for, so join keys, group keys, and
//!   lexicographic tie-breaks can all operate on plain integers. It is built,
//!   with the columns, by [`EncodedDatabase::encode`]: one [`FoldHasher`] probe
//!   per cell and a sort of the distinct values only; no map outlives it.
//! * [`EncodedColumns`] — one relation's tuples transposed into column-major
//!   `Vec<u64>` code columns, shared behind `Arc`s.
//! * [`EncodedRelation`] — a *view* over encoded columns: one selection vector
//!   ([`SelVec`]) into the base columns plus synthesized columns, one code per view
//!   row, for the variables the lossy construction introduces (sketch-bucket
//!   identifiers). A view row is one `u32` index; selections and that
//!   construction produce new views over the *same* base
//!   columns — no tuple is ever copied on the encoded path; values are decoded back
//!   to [`Value`]s only at the answer boundary. Only this module knows how a view
//!   stores its rows.

use crate::{DataError, Database, Result, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::Arc;

/// A seeded folded-multiply hasher, one multiply per word: `p = (state ^ word) · K`
/// over 128 bits, `state = lo(p) ^ hi(p)`, so every input bit reaches both the low
/// bits a table indexes with and the top bits it tags with. It is its own builder:
/// `default` draws a seed from [`RandomState`], and each hash starts from a copy, so
/// keys cannot be chosen to collide without knowing the seed.
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher(u64);

impl Default for FoldHasher {
    fn default() -> FoldHasher {
        FoldHasher(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for FoldHasher {
    type Hasher = FoldHasher;
    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        *self
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u64(&mut self, word: u64) {
        // Knuth's MMIX multiplier; the golden ratio's spreads the low bits worse.
        let p = u128::from(self.0 ^ word) * 0x5851_f42d_4c95_7f2d;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// An order-preserving interner from [`Value`]s to dense `u64` codes.
///
/// Codes are assigned in sorted value order, so for any two dictionary values
/// `a`, `b`: `encode(a) < encode(b)` ⇔ `a < b`. This is what lets the encoded
/// execution layer compare codes wherever the row layer compares values (join-group
/// ordering, pivot tie-breaks) without decoding.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    /// Code → value, in sorted value order.
    values: Vec<Value>,
}

impl Dictionary {
    /// The code of a value, if it belongs to the dictionary (a binary search).
    pub fn encode(&self, value: &Value) -> Option<u64> {
        self.values
            .binary_search(value)
            .ok()
            .map(|code| code as u64)
    }

    /// The value behind a code. Panics if the code is out of range.
    pub fn decode(&self, code: u64) -> &Value {
        &self.values[code as usize]
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All dictionary values in code order (i.e. sorted).
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// One relation's tuples transposed into column-major code columns.
#[derive(Clone, Debug)]
pub struct EncodedColumns {
    name: String,
    len: usize,
    columns: Vec<Arc<Vec<u64>>>,
}

impl EncodedColumns {
    /// The relational symbol.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of base columns (the relation's arity).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// One code column.
    pub fn column(&self, col: usize) -> &[u64] {
        &self.columns[col]
    }

    /// The bytes the code columns hold: rows × arity × 8, exactly.
    pub fn code_bytes(&self) -> usize {
        self.len * self.arity() * std::mem::size_of::<u64>()
    }
}

/// A whole database in encoded form: one dictionary shared by all relations.
///
/// The engine builds one of these per catalog generation and keeps only it: every
/// prepared plan compiled against that generation shares its columns, and the
/// caller's row [`Database`] is dropped once it is encoded.
#[derive(Clone, Debug)]
pub struct EncodedDatabase {
    dictionary: Arc<Dictionary>,
    relations: BTreeMap<String, Arc<EncodedColumns>>,
}

impl EncodedDatabase {
    /// Encodes a database in one pass over its cells. Each cell is interned once
    /// into a provisional id, by first occurrence, in one of two maps under one
    /// freshly seeded [`FoldHasher`]: integers by `i64`, strings by `Arc` (ids
    /// tagged with the top bit). Only the **distinct** values are sorted, integers
    /// first as in [`Value`]'s order, and one pass remaps the columns to the final
    /// codes. The pass is sequential and reads no map in iteration order, so the
    /// codes depend on neither the thread count nor the seed.
    pub fn encode(db: &Database) -> Result<EncodedDatabase> {
        if let Some(rel) = db.relations().find(|rel| rel.len() > u32::MAX as usize) {
            return Err(DataError::EncodingOverflow(format!(
                "relation {} has {} tuples; the encoded layer indexes rows with u32",
                rel.name(),
                rel.len()
            )));
        }
        const STR: u64 = 1 << 63;
        let state = FoldHasher::default();
        let mut ints: HashMap<i64, u64, FoldHasher> = HashMap::with_hasher(state);
        let mut strs: HashMap<&Arc<str>, u64, FoldHasher> = HashMap::with_hasher(state);
        let mut relations: Vec<Vec<Vec<u64>>> = Vec::new();
        for rel in db.relations() {
            let mut columns = vec![Vec::with_capacity(rel.len()); rel.arity()];
            for tuple in rel.iter() {
                for (column, value) in columns.iter_mut().zip(tuple.values()) {
                    column.push(match value {
                        Value::Int(i) => {
                            let next = ints.len() as u64;
                            *ints.entry(*i).or_insert(next)
                        }
                        Value::Str(s) => {
                            let next = STR | strs.len() as u64;
                            *strs.entry(s).or_insert(next)
                        }
                    });
                }
            }
            relations.push(columns);
        }
        // A distinct value's code is its position in sorted order.
        let mut ints: Vec<(i64, u64)> = ints.into_iter().collect();
        let mut strs: Vec<(&Arc<str>, u64)> = strs.into_iter().collect();
        ints.sort_unstable();
        strs.sort_unstable();
        // An integer's remap slot is its id; a string's follows every integer's.
        let slot = |id: u64| (id & !STR) as usize + (id >> 63) as usize * ints.len();
        let mut remap = vec![0u64; ints.len() + strs.len()];
        let ids = ints.iter().map(|v| v.1).chain(strs.iter().map(|v| v.1));
        for (code, id) in ids.enumerate() {
            remap[slot(id)] = code as u64;
        }
        for id in relations.iter_mut().flatten().flatten() {
            *id = remap[slot(*id)];
        }
        let values = (ints.into_iter().map(|(i, _)| Value::Int(i)))
            .chain(strs.into_iter().map(|(s, _)| Value::Str(Arc::clone(s))))
            .collect();
        let relations = db
            .relations()
            .zip(relations)
            .map(|(rel, columns)| {
                let encoded = EncodedColumns {
                    name: rel.name().to_string(),
                    len: rel.len(),
                    columns: columns.into_iter().map(Arc::new).collect(),
                };
                (encoded.name.clone(), Arc::new(encoded))
            })
            .collect();
        Ok(EncodedDatabase {
            dictionary: Arc::new(Dictionary { values }),
            relations,
        })
    }

    /// The shared dictionary.
    pub fn dictionary(&self) -> &Arc<Dictionary> {
        &self.dictionary
    }

    /// Looks up one relation's encoded columns.
    pub fn relation(&self, name: &str) -> Result<&Arc<EncodedColumns>> {
        self.relations
            .get(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Iterates over the encoded relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &Arc<EncodedColumns>)> {
        self.relations.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Total rows across all relations (the database size `n`).
    pub fn total_rows(&self) -> usize {
        self.relations.values().map(|c| c.len()).sum()
    }
}

/// A selection vector: which base rows a view selects, in order. Rows may repeat
/// (the lossy SUM construction copies a row once per sketch bucket it joins).
#[derive(Clone, Debug)]
pub enum SelVec {
    /// Every base row, in storage order.
    All(u32),
    /// An explicit list of base-row indices.
    Rows(Arc<Vec<u32>>),
}

impl SelVec {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            SelVec::All(n) => *n as usize,
            SelVec::Rows(rows) => rows.len(),
        }
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The base row selected at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            SelVec::All(_) => i as u32,
            SelVec::Rows(rows) => rows[i],
        }
    }
}

/// A relation *view* on the encoded path: shared base columns, a selection vector
/// into them, and synthesized columns (one code per view row: sketch-bucket
/// identifiers). This is what the lossy construction produces instead of
/// materialized relation copies — a selection vector, with repeats, plus a
/// synthesized column.
/// A view row is addressed by one index, `0..len()`.
#[derive(Clone, Debug)]
pub struct EncodedRelation {
    name: String,
    base: Arc<EncodedColumns>,
    sel: SelVec,
    synth: Vec<Arc<Vec<u64>>>,
}

impl EncodedRelation {
    /// The full view of a base relation: every row, no synthesized columns.
    pub fn full(base: Arc<EncodedColumns>) -> EncodedRelation {
        EncodedRelation {
            name: base.name().to_string(),
            sel: SelVec::All(base.len() as u32),
            base,
            synth: Vec::new(),
        }
    }

    /// The relational symbol of the view.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A renamed view sharing this view's storage (self-join elimination).
    pub fn renamed(&self, name: impl Into<String>) -> EncodedRelation {
        EncodedRelation {
            name: name.into(),
            ..self.clone()
        }
    }

    /// The shared base columns.
    pub fn base(&self) -> &Arc<EncodedColumns> {
        &self.base
    }

    /// The base rows the view selects.
    pub fn sel(&self) -> &SelVec {
        &self.sel
    }

    /// Number of base columns.
    pub fn base_arity(&self) -> usize {
        self.base.arity()
    }

    /// Total arity of the view (base + synthesized columns).
    pub fn arity(&self) -> usize {
        self.base.arity() + self.synth.len()
    }

    /// Number of rows of the view.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True when the view selects no rows.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// The code at view row `row`, column `col`: columns `0..base_arity` read the
    /// base columns through the selection vector, columns `base_arity..arity` the
    /// synthesized columns.
    #[inline]
    pub fn code(&self, row: usize, col: usize) -> u64 {
        let base_arity = self.base.arity();
        if col < base_arity {
            self.base.column(col)[self.sel.get(row) as usize]
        } else {
            self.synth[col - base_arity][row]
        }
    }

    /// The view of this view's rows `rows`, in the order given (a row may repeat),
    /// with the same columns.
    pub fn select(&self, mut rows: Vec<u32>) -> EncodedRelation {
        let synth = (self.synth.iter())
            .map(|codes| Arc::new(rows.iter().map(|&row| codes[row as usize]).collect()))
            .collect();
        // Under `All`, a view row is its base row.
        if let SelVec::Rows(base_rows) = &self.sel {
            rows.iter_mut()
                .for_each(|row| *row = base_rows[*row as usize]);
        }
        EncodedRelation {
            name: self.name.clone(),
            base: Arc::clone(&self.base),
            sel: SelVec::Rows(Arc::new(rows)),
            synth,
        }
    }

    /// This view with `codes` appended as one more synthesized column, one code per
    /// row. Panics if the lengths differ.
    pub fn with_synth(mut self, codes: Vec<u64>) -> EncodedRelation {
        assert_eq!(codes.len(), self.len(), "one synthesized code per view row");
        self.synth.push(Arc::new(codes));
        self
    }

    /// True when the two views share the same base column storage.
    pub fn shares_base_with(&self, other: &EncodedRelation) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The sort-everything construction [`EncodedDatabase::encode`] replaced, kept
    /// as the oracle of `one_pass_encoding_matches_the_sort_everything_oracle`:
    /// clone every cell, sort and dedup them all, then hash every cell again.
    impl Dictionary {
        fn from_database(db: &Database) -> Dictionary {
            let mut values: Vec<Value> = Vec::new();
            for rel in db.relations() {
                for tuple in rel.iter() {
                    values.extend(tuple.values().iter().cloned());
                }
            }
            values.sort_unstable();
            values.dedup();
            Dictionary { values }
        }
    }

    impl EncodedColumns {
        fn encode(relation: &Relation, dict: &Dictionary) -> EncodedColumns {
            let mut columns = vec![Vec::with_capacity(relation.len()); relation.arity()];
            for tuple in relation.iter() {
                for (col, value) in tuple.values().iter().enumerate() {
                    columns[col].push(dict.encode(value).expect("the oracle saw every cell"));
                }
            }
            EncodedColumns {
                name: relation.name().to_string(),
                len: relation.len(),
                columns: columns.into_iter().map(Arc::new).collect(),
            }
        }
    }

    /// Ints and strings mixed in every column, over a small domain so values repeat
    /// inside and across relations: ints of both signs, the extremes, multiples of
    /// 2^32 and 2^48 (equal in their low 32 bits), and strings that read as ints.
    fn random_value(rng: &mut StdRng, domain: i64) -> Value {
        let k = rng.random_range(-domain..=domain);
        match rng.random_range(0..8u32) {
            0 | 1 => Value::from(k),
            2 => Value::from(if rng.random_bool(0.5) {
                i64::MIN
            } else {
                i64::MAX
            }),
            3 => Value::from(k << 32),
            4 => Value::from(k << 48),
            5 => Value::str(k.to_string()),
            _ => Value::str(format!("s{}", k.abs())),
        }
    }

    /// One to four relations of arity 1–4 with 0–40 rows each (about one in five
    /// is empty).
    fn random_database(seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = rng.random_range(1..=12i64);
        let relations = (0..rng.random_range(1..=4usize)).map(|i| {
            let mut rel = Relation::new(format!("R{i}"), rng.random_range(1..=4usize));
            let rows = if rng.random_bool(0.2) {
                0
            } else {
                rng.random_range(1..=40usize)
            };
            for _ in 0..rows {
                let row = (0..rel.arity()).map(|_| random_value(&mut rng, domain));
                rel.push(row.collect()).unwrap();
            }
            rel
        });
        Database::from_relations(relations.collect::<Vec<_>>()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass encoding yields the oracle's dictionary (sorted, distinct),
        /// the oracle's code columns and order-preserving codes, at 1 and 4 threads.
        /// Mutations caught: strings coded before ints; a remap that reads a tagged
        /// (string) id at the integers' slots.
        #[test]
        fn one_pass_encoding_matches_the_sort_everything_oracle(seed in 0u64..1_000_000) {
            let db = random_database(seed);
            let oracle = Dictionary::from_database(&db);
            for threads in [1usize, 4] {
                let pool = qjoin_par::Pool::new(threads);
                let enc = qjoin_par::with_pool(&pool, || EncodedDatabase::encode(&db)).unwrap();
                let dict = enc.dictionary();
                prop_assert_eq!(dict.values(), oracle.values(), "T={}", threads);
                for (i, a) in dict.values().iter().enumerate() {
                    prop_assert_eq!(dict.encode(a), Some(i as u64));
                    for b in dict.values() {
                        prop_assert_eq!(dict.encode(a) < dict.encode(b), a < b, "{:?} vs {:?}", a, b);
                    }
                }
                prop_assert_eq!(enc.relations().count(), db.num_relations());
                for rel in db.relations() {
                    let want = EncodedColumns::encode(rel, &oracle);
                    let got = enc.relation(rel.name()).unwrap();
                    prop_assert_eq!((got.name(), got.len(), got.arity()), (want.name(), want.len(), want.arity()));
                    for col in 0..want.arity() {
                        prop_assert_eq!(got.column(col), want.column(col), "{} column {}", rel.name(), col);
                    }
                }
            }
        }
    }

    /// Keys `i` rotated left by `s` bits under a fixed seed (at s = 56 a plain
    /// shift would leave only 256 distinct keys): the low 12 bits, a 4096-slot
    /// table's bucket index, and the top 7, its tag, stay spread at every `s`.
    /// Mutation caught: keeping only the low half of the product, whose low 12 bits
    /// see only the key's low 12.
    #[test]
    fn folded_multiply_spreads_every_input_bit() {
        let state = FoldHasher(0x0123_4567_89ab_cdef);
        for s in (0..=56).step_by(8) {
            let keys = (0..4096u64).map(|i| i.rotate_left(s));
            let hashes: Vec<u64> = keys.map(|key| state.hash_one(key)).collect();
            let low: HashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
            let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(low.len() >= 2048, "s={s}: {} low-12-bit values", low.len());
            assert!(top.len() >= 96, "s={s}: {} top-7-bit values", top.len());
        }
    }

    /// One database encoded twice, each encode under a fresh seed (`RandomState`
    /// never repeats its keys within a thread): equal dictionaries and columns.
    /// Mutation caught: codes assigned in the maps' iteration order.
    #[test]
    fn encoding_is_the_same_under_every_seed() {
        for seed in 0..64 {
            let db = random_database(seed);
            let (a, b) = (EncodedDatabase::encode(&db), EncodedDatabase::encode(&db));
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(
                a.dictionary().values(),
                b.dictionary().values(),
                "db {seed}"
            );
            for ((name, x), (_, y)) in a.relations().zip(b.relations()) {
                for col in 0..x.arity() {
                    assert_eq!(x.column(col), y.column(col), "db {seed}: {name}.{col}");
                }
            }
        }
    }

    /// `Dictionary::encode` finds every value at its code and no value beside it:
    /// each int's neighbours, each string with a suffix and without its first
    /// character, and the int extremes. Mutation caught: values left unsorted, or
    /// strings before ints, so that the binary search misses.
    #[test]
    fn dictionary_lookup_finds_exactly_its_values() {
        for seed in 0..64 {
            let enc = EncodedDatabase::encode(&random_database(seed)).unwrap();
            let dict = enc.dictionary();
            for (code, value) in dict.values().iter().enumerate() {
                assert_eq!(dict.encode(value), Some(code as u64), "{value:?}");
                let near = match value {
                    Value::Int(i) => vec![i.wrapping_sub(1), i.wrapping_add(1)]
                        .into_iter()
                        .map(Value::from)
                        .collect(),
                    Value::Str(s) => vec![Value::str(format!("{s}~")), Value::str(&s[1..])],
                };
                for probe in near
                    .iter()
                    .chain(&[Value::from(i64::MIN), Value::from(i64::MAX)])
                {
                    let present = dict.values().contains(probe);
                    assert_eq!(dict.encode(probe).is_some(), present, "{probe:?}");
                }
            }
        }
    }

    fn small_db() -> Database {
        let r = Relation::from_rows("R", &[&[3, 1], &[1, 2], &[3, 2]]).unwrap();
        let s = Relation::from_rows("S", &[&[2, 9], &[1, 7]]).unwrap();
        Database::from_relations([r, s]).unwrap()
    }

    #[test]
    fn dictionary_is_order_preserving() {
        let enc = EncodedDatabase::encode(&small_db()).unwrap();
        let dict = enc.dictionary();
        // Distinct values: 1, 2, 3, 7, 9.
        assert_eq!(dict.len(), 5);
        for (a, b) in dict.values().iter().zip(dict.values().iter().skip(1)) {
            assert!(a < b);
        }
        let c1 = dict.encode(&Value::from(1)).unwrap();
        let c9 = dict.encode(&Value::from(9)).unwrap();
        assert!(c1 < c9);
        assert_eq!(dict.decode(c1), &Value::from(1));
        assert_eq!(dict.encode(&Value::from(42)), None);
    }

    #[test]
    fn dictionary_orders_across_variants() {
        let mut r = Relation::new("R", 1);
        r.push(vec![Value::from("b")]).unwrap();
        r.push(vec![Value::from(5)]).unwrap();
        r.push(vec![Value::from("a")]).unwrap();
        let enc = EncodedDatabase::encode(&Database::from_relations([r]).unwrap()).unwrap();
        let dict = enc.dictionary();
        let ci = dict.encode(&Value::from(5)).unwrap();
        let ca = dict.encode(&Value::from("a")).unwrap();
        let cb = dict.encode(&Value::from("b")).unwrap();
        assert!(ci < ca && ca < cb, "Int < Str, strings ordered");
    }

    #[test]
    fn encoded_columns_round_trip() {
        let db = small_db();
        let enc = EncodedDatabase::encode(&db).unwrap();
        let dict = Arc::clone(enc.dictionary());
        let r = enc.relation("R").unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.code_bytes(), 3 * 2 * 8);
        let original = db.relation("R").unwrap();
        for (row, tuple) in original.iter().enumerate() {
            for col in 0..2 {
                assert_eq!(dict.decode(r.column(col)[row]), tuple.get(col).unwrap());
            }
        }
        assert_eq!(enc.total_rows(), db.total_tuples());
    }

    #[test]
    fn full_view_reads_base_codes() {
        let db = small_db();
        let enc = EncodedDatabase::encode(&db).unwrap();
        let view = EncodedRelation::full(Arc::clone(enc.relation("R").unwrap()));
        assert_eq!(view.len(), 3);
        assert_eq!(view.arity(), 2);
        assert_eq!(view.code(1, 0), enc.relation("R").unwrap().column(0)[1]);
    }

    /// Synthesized columns follow view rows, not base rows, through `select`.
    /// Mutation caught: `select` gathering a synthesized code at the base row
    /// `sel.get(row)` instead of the view row.
    #[test]
    fn synth_columns_extend_arity() {
        let db = small_db();
        let enc = EncodedDatabase::encode(&db).unwrap();
        let base = Arc::clone(enc.relation("S").unwrap());
        let view = EncodedRelation::full(Arc::clone(&base))
            .select(vec![1, 0, 1])
            .with_synth(vec![7, 8, 9])
            .with_synth(vec![5, 6, 4]);
        assert_eq!(view.arity(), 4);
        assert_eq!(view.len(), 3);
        assert_eq!(view.code(0, 2), 7);
        assert_eq!(view.code(2, 3), 4);
        // Row 0 selects base row 1.
        assert_eq!(view.code(0, 0), base.column(0)[1]);
        // Keep view rows 1 and 2 (base rows 0 and 1): their synthesized codes come
        // along, read at the view row.
        let kept = view.select(vec![1, 2]);
        assert_eq!(kept.len(), 2);
        let rows: Vec<Vec<u64>> = (0..kept.len())
            .map(|row| (0..kept.arity()).map(|col| kept.code(row, col)).collect())
            .collect();
        assert_eq!(
            rows,
            [
                vec![base.column(0)[0], base.column(1)[0], 8, 6],
                vec![base.column(0)[1], base.column(1)[1], 9, 4],
            ]
        );
    }
}
