//! Dictionary encoding: dense integer codes for [`Value`]s plus column-major,
//! selection-vector relation views.
//!
//! The trimming recursion of the quantile driver re-examines the same base tuples
//! dozens of times per solve. In the row representation every round re-hashes
//! [`Value`] enums (recursing through `Arc`s for composite identifiers) and allocates
//! a projected [`Tuple`](crate::Tuple) per join-key lookup. This module provides the
//! encoded substrate that the hot path runs on instead:
//!
//! * [`Dictionary`] — an **order-preserving** interner: every distinct value of a
//!   database is assigned a dense `u64` code such that `code(a) < code(b)` iff
//!   `a < b`. Equality and ordering of codes therefore coincide with equality and
//!   ordering of the values they stand for, so join keys, group keys, and
//!   lexicographic tie-breaks can all operate on plain integers. It is built,
//!   with the columns, by [`EncodedDatabase::encode`]: one hash probe per cell
//!   and a sort of the distinct values only.
//! * [`EncodedColumns`] — one relation's tuples transposed into column-major
//!   `Vec<u64>` code columns, shared behind `Arc`s.
//! * [`EncodedRelation`] — a *view* over encoded columns: a list of [`Segment`]s,
//!   each holding a selection vector ([`SelVec`]) into the base columns plus
//!   synthesized columns ([`SynthCol`]) for the variables the trimming
//!   constructions introduce (partition tags, dyadic-interval identifiers).
//!   Filtering and partition unions produce new views over the *same* base columns —
//!   no tuple is ever copied on the encoded path; values are decoded back to
//!   [`Value`]s only at the answer boundary.

use crate::{DataError, Database, Result, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    /// Value → code.
    index: HashMap<Value, u64>,
}

impl Dictionary {
    /// The code of a value, if it belongs to the dictionary.
    pub fn encode(&self, value: &Value) -> Option<u64> {
        self.index.get(value).copied()
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
    /// Encodes a database in one pass over its cells: every cell is interned once
    /// into a provisional id (first occurrence wins), only the **distinct** values
    /// are sorted, and the provisional columns are remapped in place through an
    /// array to the final, order-preserving codes. The pass is sequential, so the
    /// encoding is identical at any thread count.
    pub fn encode(db: &Database) -> Result<EncodedDatabase> {
        if let Some(rel) = db.relations().find(|rel| rel.len() > u32::MAX as usize) {
            return Err(DataError::EncodingOverflow(format!(
                "relation {} has {} tuples; the encoded layer indexes rows with u32",
                rel.name(),
                rel.len()
            )));
        }
        let mut index: HashMap<Value, u64> = HashMap::new();
        let mut relations: Vec<Vec<Vec<u64>>> = Vec::new();
        for rel in db.relations() {
            let mut columns = vec![Vec::with_capacity(rel.len()); rel.arity()];
            for tuple in rel.iter() {
                for (column, value) in columns.iter_mut().zip(tuple.values()) {
                    let id = match index.get(value) {
                        Some(&id) => id,
                        None => {
                            let id = index.len() as u64;
                            index.insert(value.clone(), id);
                            id
                        }
                    };
                    column.push(id);
                }
            }
            relations.push(columns);
        }
        // A distinct value's code is its position in sorted order.
        let mut sorted: Vec<(&Value, u64)> = index.iter().map(|(v, &id)| (v, id)).collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut remap = vec![0u64; sorted.len()];
        for (code, &(_, id)) in sorted.iter().enumerate() {
            remap[id as usize] = code as u64;
        }
        let values: Vec<Value> = sorted.into_iter().map(|(v, _)| v.clone()).collect();
        let provisional = relations.iter_mut().flatten().flatten();
        for id in index.values_mut().chain(provisional) {
            *id = remap[*id as usize];
        }
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
            dictionary: Arc::new(Dictionary { values, index }),
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

/// A selection vector: which base rows a segment selects, in order. Rows may repeat
/// (the dyadic SUM construction emits one output row per covering interval).
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

/// A synthesized column of a segment: either one constant code for every row of the
/// segment (partition tags) or one code per row (dyadic-interval identifiers).
#[derive(Clone, Debug)]
pub enum SynthCol {
    /// The same code for every row of the segment.
    Const(u64),
    /// One code per row, aligned with the segment's selection vector.
    PerRow(Arc<Vec<u64>>),
}

impl SynthCol {
    /// The code at row `i` of the segment.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            SynthCol::Const(c) => *c,
            SynthCol::PerRow(codes) => codes[i],
        }
    }
}

/// One contiguous block of an [`EncodedRelation`] view: a selection vector into the
/// base columns plus the segment's synthesized-column codes.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Which base rows this segment selects.
    pub sel: SelVec,
    /// Synthesized columns, appended after the base columns. All segments of one
    /// relation view carry the same number of synthesized columns.
    pub synth: Vec<SynthCol>,
}

impl Segment {
    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }
}

/// A relation *view* on the encoded path: shared base columns plus a list of
/// segments. This is what the trim rounds produce instead of materialized relation
/// copies — a filter is a selection vector, a partition union is one tagged segment
/// per partition, and the dyadic SUM construction is a selection vector with repeats
/// plus a per-row synthesized column.
#[derive(Clone, Debug)]
pub struct EncodedRelation {
    name: String,
    base: Arc<EncodedColumns>,
    synth_arity: usize,
    segments: Vec<Segment>,
}

impl EncodedRelation {
    /// The full view of a base relation: one `All` segment, no synthesized columns.
    pub fn full(base: Arc<EncodedColumns>) -> EncodedRelation {
        let len = base.len() as u32;
        EncodedRelation {
            name: base.name().to_string(),
            base,
            synth_arity: 0,
            segments: vec![Segment {
                sel: SelVec::All(len),
                synth: Vec::new(),
            }],
        }
    }

    /// Assembles a view from explicit segments. Every segment must carry exactly
    /// `synth_arity` synthesized columns.
    pub fn from_segments(
        name: impl Into<String>,
        base: Arc<EncodedColumns>,
        synth_arity: usize,
        segments: Vec<Segment>,
    ) -> Result<EncodedRelation> {
        let name = name.into();
        for seg in &segments {
            if seg.synth.len() != synth_arity {
                return Err(DataError::ArityMismatch {
                    relation: name,
                    expected: synth_arity,
                    found: seg.synth.len(),
                });
            }
        }
        Ok(EncodedRelation {
            name,
            base,
            synth_arity,
            segments,
        })
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

    /// Number of base columns.
    pub fn base_arity(&self) -> usize {
        self.base.arity()
    }

    /// Number of synthesized columns.
    pub fn synth_arity(&self) -> usize {
        self.synth_arity
    }

    /// Total arity of the view (base + synthesized columns).
    pub fn arity(&self) -> usize {
        self.base.arity() + self.synth_arity
    }

    /// The segments of the view.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total number of rows across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// True when the view selects no rows.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(Segment::is_empty)
    }

    /// The code at (`segment`, `row`, `col`), where columns `0..base_arity` read the
    /// base columns through the selection vector and columns `base_arity..arity`
    /// read the synthesized columns.
    #[inline]
    pub fn code(&self, segment: usize, row: usize, col: usize) -> u64 {
        let seg = &self.segments[segment];
        let base_arity = self.base.arity();
        if col < base_arity {
            self.base.column(col)[seg.sel.get(row) as usize]
        } else {
            seg.synth[col - base_arity].get(row)
        }
    }

    /// Calls `f` once per row of the view, in segment order, with `(segment, row)`
    /// coordinates suitable for [`EncodedRelation::code`].
    pub fn for_each_row(&self, mut f: impl FnMut(usize, usize)) {
        for (seg_idx, seg) in self.segments.iter().enumerate() {
            for row in 0..seg.len() {
                f(seg_idx, row);
            }
        }
    }

    /// A view keeping only the rows for which `keep` returns true. When a segment
    /// keeps every row, it is shared (cloned by handle) rather than rebuilt — the
    /// encoded analogue of [`crate::Relation::filtered`]'s sharing guarantee.
    ///
    /// Each segment is scanned in fixed-size chunks over the current executor
    /// pool; every chunk packs its surviving rows locally and the partials are
    /// concatenated in canonical chunk order, so the resulting selection vector
    /// is byte-identical to the sequential scan at any thread count.
    pub fn filtered(&self, keep: impl Fn(usize, usize) -> bool + Sync) -> EncodedRelation {
        let keep = &keep;
        let segments = self
            .segments
            .iter()
            .enumerate()
            .map(|(seg_idx, seg)| {
                let parts: Vec<(Vec<u32>, Vec<Vec<u64>>)> =
                    qjoin_par::par_map_chunks(seg.len(), qjoin_par::DEFAULT_CHUNK, |_, range| {
                        let mut rows = Vec::new();
                        let mut synth: Vec<Vec<u64>> = vec![Vec::new(); seg.synth.len()];
                        for row in range {
                            if !keep(seg_idx, row) {
                                continue;
                            }
                            rows.push(seg.sel.get(row));
                            for (k, col) in seg.synth.iter().enumerate() {
                                if let SynthCol::PerRow(codes) = col {
                                    synth[k].push(codes[row]);
                                }
                            }
                        }
                        (rows, synth)
                    });
                let kept: usize = parts.iter().map(|(rows, _)| rows.len()).sum();
                if kept == seg.len() {
                    return seg.clone();
                }
                let mut rows = Vec::with_capacity(kept);
                let mut synth_rows: Vec<Vec<u64>> = vec![Vec::new(); seg.synth.len()];
                for (part_rows, part_synth) in parts {
                    rows.extend(part_rows);
                    for (k, part) in part_synth.into_iter().enumerate() {
                        synth_rows[k].extend(part);
                    }
                }
                let synth = seg
                    .synth
                    .iter()
                    .enumerate()
                    .map(|(k, col)| match col {
                        SynthCol::Const(c) => SynthCol::Const(*c),
                        SynthCol::PerRow(_) => {
                            SynthCol::PerRow(Arc::new(std::mem::take(&mut synth_rows[k])))
                        }
                    })
                    .collect();
                Segment {
                    sel: SelVec::Rows(Arc::new(rows)),
                    synth,
                }
            })
            .collect();
        EncodedRelation {
            name: self.name.clone(),
            base: Arc::clone(&self.base),
            synth_arity: self.synth_arity,
            segments,
        }
    }

    /// A view with the same base and no rows (the encoded analogue of clearing a
    /// relation while preserving its schema).
    pub fn cleared(&self) -> EncodedRelation {
        EncodedRelation {
            name: self.name.clone(),
            base: Arc::clone(&self.base),
            synth_arity: self.synth_arity,
            segments: Vec::new(),
        }
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
            let index = values
                .iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), i as u64))
                .collect();
            Dictionary { values, index }
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

    /// Ints of both signs, strings and composites over a small domain, so values
    /// repeat inside and across relations.
    fn random_value(rng: &mut StdRng, domain: i64) -> Value {
        match rng.random_range(0..4u32) {
            0 | 1 => Value::from(rng.random_range(-domain..=domain)),
            2 => Value::str(format!("s{}", rng.random_range(0..domain))),
            _ => Value::pair(
                Value::from(rng.random_range(0..domain)),
                Value::str(format!("c{}", rng.random_range(0..3))),
            ),
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
        assert_eq!(view.code(0, 1, 0), enc.relation("R").unwrap().column(0)[1]);
    }

    #[test]
    fn filtered_view_selects_and_shares_when_total() {
        let db = small_db();
        let enc = EncodedDatabase::encode(&db).unwrap();
        let dict = Arc::clone(enc.dictionary());
        let view = EncodedRelation::full(Arc::clone(enc.relation("R").unwrap()));
        let three = dict.encode(&Value::from(3)).unwrap();
        let filtered = view.filtered(|seg, row| view.code(seg, row, 0) == three);
        assert_eq!(filtered.len(), 2);
        assert!(filtered.shares_base_with(&view));
        let all = view.filtered(|_, _| true);
        assert!(matches!(all.segments()[0].sel, SelVec::All(_)));
        let none = view.filtered(|_, _| false);
        assert!(none.is_empty());
    }

    #[test]
    fn synth_columns_extend_arity() {
        let db = small_db();
        let enc = EncodedDatabase::encode(&db).unwrap();
        let base = Arc::clone(enc.relation("S").unwrap());
        let seg = Segment {
            sel: SelVec::Rows(Arc::new(vec![1, 0, 1])),
            synth: vec![
                SynthCol::Const(7),
                SynthCol::PerRow(Arc::new(vec![5, 6, 7])),
            ],
        };
        let view = EncodedRelation::from_segments("S", base, 2, vec![seg]).unwrap();
        assert_eq!(view.arity(), 4);
        assert_eq!(view.len(), 3);
        assert_eq!(view.code(0, 0, 2), 7);
        assert_eq!(view.code(0, 2, 3), 7);
        // Row 0 selects base row 1.
        assert_eq!(view.code(0, 0, 0), enc.relation("S").unwrap().column(0)[1]);
    }

    #[test]
    fn from_segments_validates_synth_arity() {
        let db = small_db();
        let enc = EncodedDatabase::encode(&db).unwrap();
        let base = Arc::clone(enc.relation("S").unwrap());
        let seg = Segment {
            sel: SelVec::All(2),
            synth: vec![SynthCol::Const(0)],
        };
        assert!(EncodedRelation::from_segments("S", base, 2, vec![seg]).is_err());
    }

    #[test]
    fn cleared_view_is_empty_with_same_arity() {
        let db = small_db();
        let enc = EncodedDatabase::encode(&db).unwrap();
        let view = EncodedRelation::full(Arc::clone(enc.relation("R").unwrap()));
        let cleared = view.cleared();
        assert!(cleared.is_empty());
        assert_eq!(cleared.arity(), view.arity());
    }
}
