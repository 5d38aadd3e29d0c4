//! # qjoin-data
//!
//! Relational storage substrate for the `qjoin` family of crates, which together
//! reproduce *"Efficient Computation of Quantiles over Joins"* (PODS 2023).
//!
//! This crate is intentionally small and self-contained: it defines the constants
//! ([`Value`]), tuples ([`Tuple`]), relations ([`Relation`]), and databases
//! ([`Database`]) that every other crate operates on. The model follows Section 2.1
//! of the paper:
//!
//! * a **database** `D` holds one finite relation per relational symbol,
//! * the **size** of `D` is the total number of tuples `n`,
//! * the **domain** is a set of constants; here modelled by [`Value`], which supports
//!   integers and (interned) strings. The auxiliary identifiers the paper's lossy
//!   construction introduces (sketch buckets) are not values: the [`encode`] layer
//!   stores them as synthesized code columns of a relation view.
//!
//! The crate has no query knowledge; queries, hypergraphs and join trees live in
//! `qjoin-query`.
//!
//! ## Example
//!
//! ```
//! use qjoin_data::{Database, Relation, Value};
//!
//! let mut db = Database::new();
//! let mut admin = Relation::new("Admin", 2);
//! admin.push(vec![Value::from(1), Value::from(100)]).unwrap();
//! admin.push(vec![Value::from(2), Value::from(100)]).unwrap();
//! db.add_relation(admin).unwrap();
//!
//! assert_eq!(db.total_tuples(), 2);
//! assert_eq!(db.relation("Admin").unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
pub mod encode;
mod error;
mod relation;
mod tuple;
mod value;

pub use database::Database;
pub use encode::{Dictionary, EncodedColumns, EncodedDatabase, EncodedRelation, SelVec};
pub use error::DataError;
pub use relation::Relation;
pub use tuple::Tuple;
pub use value::Value;

/// Convenient `Result` alias used throughout the data layer.
pub type Result<T> = std::result::Result<T, DataError>;
