//! # qjoin-query
//!
//! Join queries, hypergraphs, acyclicity testing, and join trees — the query-level
//! substrate of the `qjoin` reproduction of *"Efficient Computation of Quantiles over
//! Joins"* (PODS 2023).
//!
//! This crate covers Section 2.1 of the paper:
//!
//! * [`Variable`], [`Atom`], and [`JoinQuery`] model full conjunctive queries without
//!   projection (JQs).
//! * [`Hypergraph`] is the query hypergraph `H(Q)` with the vertex/edge utilities the
//!   dichotomy of Theorem 5.6 needs (independent sets, chordless paths, maximal
//!   hyperedges).
//! * [`join_tree::JoinTree`] plus the GYO-reduction based [`acyclicity`] module decide
//!   acyclicity and build (rooted) join trees satisfying the running-intersection
//!   property; [`join_tree::enumerate_join_trees`] exhaustively enumerates join trees
//!   of small queries, which is how the library searches for trees in which the
//!   weighted variables sit on adjacent nodes (Lemma D.1).
//! * [`Instance`] bundles a query with a database and validates that they agree.
//! * [`EncodedInstance::eliminate_self_joins`] renames apart repeated relation
//!   symbols (Section 2.2, "Tuple weights").
//! * [`binary::binarize_encoded`] rewrites an encoded instance so that some join
//!   tree is binary, as required by the lossy trimming of Section 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acyclicity;
mod atom;
pub mod binary;
pub mod encoded;
mod error;
mod hypergraph;
mod instance;
pub mod join_tree;
pub mod query;
pub mod variable;

pub use atom::Atom;
pub use encoded::EncodedInstance;
pub use error::QueryError;
pub use hypergraph::Hypergraph;
pub use instance::{Assignment, Instance};
pub use join_tree::JoinTree;
pub use query::JoinQuery;
pub use variable::Variable;

/// Convenient `Result` alias for query-layer operations.
pub type Result<T> = std::result::Result<T, QueryError>;
