//! # qjoin-core
//!
//! The quantile-over-joins algorithms of *"Efficient Computation of Quantiles over
//! Joins"* (Tziavelis, Carmeli, Gatterbauer, Kimelfeld, Riedewald — PODS 2023),
//! implemented on top of the `qjoin-data` / `qjoin-query` / `qjoin-exec` /
//! `qjoin-ranking` substrate crates.
//!
//! Every production solve is asked for one way — [`Plan::prepare`] once per
//! `(instance, ranking)`, then [`Plan::solve`] per request — and runs one driver
//! ([`batch`]) over one representation, the
//! dictionary-coded [`encoded`] layer; an instance past that layer's fixed-width
//! limits is refused with [`CoreError::TooLarge`]. The row representation — the
//! [`trim`] trimmers, [`lossy_trim`], row [`pivot`] selection and the
//! [`quantile`] row backend — stays as the reference oracle the encoded layer is
//! tested against, reached through [`quantile_by_pivoting`](quantile::quantile_by_pivoting)
//! and [`quantile_batch_by_pivoting`] with an explicit trimmer.
//!
//! ## What's inside
//!
//! | Paper section | Module |
//! |---|---|
//! | §3 divide-and-conquer framework (Algorithm 1) | [`batch`], [`quantile`] |
//! | §4 generic pivot selection (Algorithm 2) | [`pivot`], [`selection`] |
//! | §5.1 MIN/MAX trimming (Algorithm 3, Theorem 5.3) | [`trim::MinMaxTrimmer`] |
//! | §5.2 LEX trimming | [`trim::LexTrimmer`] |
//! | §5.3 partial SUM trimming + dichotomy (Theorem 5.6) | [`trim::AdjacentSumTrimmer`], [`dichotomy`] |
//! | §6 ε-sketches and lossy trimming (Algorithm 4, Theorem 6.2) | [`sketch`], [`lossy_trim`] |
//! | §3.1 randomized sampling approximation | [`sampling`] |
//! | §1 "direct way" baseline | [`baseline`] |
//! | the encoded execution layer | [`encoded`] |
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
pub mod lossy_trim;
pub mod pivot;
pub mod plan;
pub mod quantile;
pub mod sampling;
pub mod selection;
pub mod sketch;
pub mod trace;
pub mod trim;

pub use batch::quantile_batch_by_pivoting;
pub use error::CoreError;
pub use plan::{Accuracy, Plan, PlanStrategy};
pub use quantile::{PivotingOptions, QuantileResult};
pub use trace::{NoopTracer, PhaseContext, SolvePhase, SolveTracer};

/// Convenient `Result` alias for the quantile algorithms.
pub type Result<T> = std::result::Result<T, CoreError>;
