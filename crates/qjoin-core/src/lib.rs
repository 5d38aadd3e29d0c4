//! # qjoin-core
//!
//! The quantile-over-joins algorithms of *"Efficient Computation of Quantiles over
//! Joins"* (Tziavelis, Carmeli, Gatterbauer, Kimelfeld, Riedewald — PODS 2023),
//! implemented on top of the `qjoin-data` / `qjoin-query` / `qjoin-exec` /
//! `qjoin-ranking` substrate crates.
//!
//! Every solve is asked for one way — [`Plan::prepare`] once per
//! `(instance, ranking)`, then [`Plan::solve`] per request — and runs one driver
//! ([`batch`]) over one representation, the dictionary-coded [`encoded`] layer; an
//! instance past that layer's fixed-width limits is refused with
//! [`CoreError::TooLarge`]. No second solver serves as a reference: the
//! workspace's brute force (`tests/common`) checks every route.
//!
//! ## What's inside
//!
//! | Paper section | Module |
//! |---|---|
//! | §3 divide-and-conquer framework (Algorithm 1) | [`batch`], [`quantile`] |
//! | §4 generic pivot selection (Algorithm 2) | [`pivot`], [`selection`], `encoded::pivot` |
//! | §5.1 MIN/MAX (Theorem 5.3): a search of the candidate weights | `encoded::search` |
//! | §5.2 LEX: the same search, one component at a time | `encoded::search` |
//! | §5.3 partial SUM (Theorem 5.6): one atom by search, an adjacent pair by counted windows | `encoded::search`, `encoded::pair`, [`dichotomy`] |
//! | §6 ε-sketches and lossy trimming (Algorithm 4, Theorem 6.2) | [`sketch`], `encoded::lossy` |
//! | §3.1 randomized sampling approximation | [`sampling`] |
//! | §1 "direct way" baseline | [`baseline`] |
//! | the leaf: weights-first selection of the target ranks | `leaf` |
//! | one way to ask for a quantile: prepare once, solve many | [`plan`] |
//! | per-phase solve tracing hooks | [`trace`] |
//!
//! ## Quick example
//!
//! ```
//! use qjoin_core::{Accuracy, NoopTracer, Plan};
//! use qjoin_data::{Database, Relation};
//! use qjoin_query::{query::path_query, EncodedInstance, Instance};
//! use qjoin_ranking::Ranking;
//!
//! // R1(x1, x2) ⋈ R2(x2, x3), median by MAX(x1, x3).
//! let r1 = Relation::from_rows("R1", &[&[1, 0], &[5, 0], &[9, 1]]).unwrap();
//! let r2 = Relation::from_rows("R2", &[&[0, 2], &[0, 7], &[1, 4]]).unwrap();
//! let instance = Instance::new(path_query(2), Database::from_relations([r1, r2]).unwrap()).unwrap();
//! let ranking = Ranking::max(qjoin_query::variable::vars(&["x1", "x3"]));
//! let plan = Plan::prepare(EncodedInstance::from_instance(&instance).unwrap(), ranking).unwrap();
//! let median = plan.solve(&[0.5], Accuracy::Exact, &NoopTracer).unwrap();
//! assert_eq!(median[0].total_answers, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod dichotomy;
pub mod encoded;
mod error;
mod leaf;
pub mod pivot;
pub mod plan;
pub mod quantile;
pub mod sampling;
pub mod selection;
pub mod sketch;
pub mod trace;

pub use error::CoreError;
pub use plan::{Accuracy, Plan, PlanStrategy};
pub use quantile::{PivotingOptions, QuantileResult};
pub use trace::{NoopTracer, PhaseContext, SolvePhase, SolveTracer};

/// Convenient `Result` alias for the quantile algorithms.
pub type Result<T> = std::result::Result<T, CoreError>;
