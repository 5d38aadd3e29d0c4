//! # qjoin-engine
//!
//! A **persistent quantile-query engine** on top of `qjoin-core`: where the core
//! crates solve one `(instance, ranking, φ)` request from scratch, this crate keeps
//! state between requests so that the expensive preparation — validation, join-tree
//! derivation, Yannakakis counting, and the §5 dichotomy — is paid **once per
//! registration** instead of once per query.
//!
//! ```text
//!             ┌───────────────────────── Engine ─────────────────────────┐
//!  request ──▶│  LRU result cache (plan id, db generation, φ, accuracy)  │
//!             │      │ miss                                              │
//!             │      ▼                                                   │
//!             │  batched multi-φ solver (qjoin-core::batch)              │
//!             │      │ reads                                             │
//!             │      ▼                                                   │
//!             │  PreparedPlan (join tree + counts + dichotomy strategy)  │
//!             │      │ compiled against                                  │
//!             │      ▼                                                   │
//!             │  Catalog (named encoded databases with generations)      │
//!             └──────────────────────────────────────────────────────────┘
//! ```
//!
//! | Component | Module |
//! |---|---|
//! | named databases + generations | [`catalog`] |
//! | compile-once registrations | [`plan`] |
//! | LRU result cache | [`cache`] |
//! | cross-request coalescing of cold exact solves, per plan | `coalesce` |
//! | the serving facade | [`engine`] |
//! | `explain` / `explain analyze` reports | [`explain`] |
//! | the `qjoin` CLI session | [`cli`] |
//!
//! ## Quick example
//!
//! ```
//! use qjoin_engine::{Engine};
//! use qjoin_query::query::social_network_query;
//! use qjoin_query::variable::vars;
//! use qjoin_ranking::Ranking;
//! use qjoin_workload::social::SocialConfig;
//!
//! let (_, database) = SocialConfig { rows_per_relation: 120, ..Default::default() }
//!     .generate()
//!     .into_parts();
//! let engine = Engine::new();
//! engine.create_database("social", database).unwrap();
//! engine
//!     .register("likes", "social", social_network_query(), Ranking::sum(vars(&["l2", "l3"])))
//!     .unwrap();
//! // One shared pass solves all three fractions; repeats come from the cache.
//! let batch = engine.quantile_batch("likes", &[0.1, 0.5, 0.9]).unwrap();
//! assert_eq!(batch.len(), 3);
//! assert!(engine.quantile("likes", 0.5).unwrap().from_cache);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod cli;
mod coalesce;
pub mod engine;
mod error;
pub mod explain;
pub mod plan;
mod telemetry;

pub use cache::{CacheStats, LruCache, ShardedLru};
pub use catalog::{Catalog, CatalogEntry};
pub use engine::{
    Engine, EngineAnswer, EngineConfig, EngineCounters, EngineStats, PlanStorageStats,
};
pub use error::EngineError;
pub use explain::{AnalyzeReport, AnalyzeRound, ExplainReport};
pub use plan::{Accuracy, PlanStrategy, PreparedPlan};
