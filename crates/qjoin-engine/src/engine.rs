//! The long-lived engine: catalog + prepared plans + result cache + solvers.
//!
//! An [`Engine`] owns a [`Catalog`] of named databases and a set of [`PreparedPlan`]s
//! compiled against them. Quantile requests hit, in order:
//!
//! 1. the **LRU result cache**, keyed by `(plan id, database generation, φ, accuracy)`
//!    — replacing a database bumps its generation, so stale results can never be
//!    served;
//! 2. the **batched multi-φ solver** for cache misses: a request solves all of its
//!    missing fractions in one shared §3 recursion pass (a single-φ request is a
//!    batch of one);
//! 3. for cold exact misses, the plan handle's **combiner**: concurrent misses
//!    against one plan generation queue their φ targets, and whichever request
//!    holds the turn solves everything queued in **one** shared batch (the paper's
//!    §4 batching theorem applied *across* requests; see the `coalesce` module);
//! 4. the **prepared plan**, which already paid for validation, the join tree, the
//!    Yannakakis counts, and the §5 dichotomy at registration time.
//!
//! ## Concurrency
//!
//! The engine is **thread-safe**: every serving method takes `&self`, and
//! `Engine: Send + Sync`, so one engine can be shared across threads behind an
//! [`Arc`] (this is how `qjoin-server` serves many connections at once).
//!
//! * The catalog and plan table live behind one [`RwLock`]. Readers (`quantile`,
//!   `quantile_batch`, `stats`, …) take a brief read lock to clone the plan's
//!   `Arc<PreparedPlan>` handle, then solve entirely outside the lock over the
//!   plan's immutable `Arc`-shared code columns.
//! * The result cache is **sharded by plan id** ([`ShardedLru`]): each shard has its
//!   own mutex, so concurrent requests against different plans never serialize on
//!   one cache lock, and a hot plan only contends on its own shard.
//! * Writers (`create_database`, `register`, `replace_database`, `drop_plan`)
//!   serialise on one **writer mutex** and do their work in three steps: snapshot
//!   what they need under a read lock; encode and compile with **no state lock
//!   held** (a compile counts `|Q(D)|` on the encoded context, so it also builds
//!   and memoises the context the generation's first reader would otherwise pay
//!   for); then take the write lock only to swap `Arc`s and bump the generation.
//!   Cache entries are invalidated, and the old generation dropped, after the
//!   write lock is released. Because writers are serialised, a snapshot cannot go
//!   stale before its swap: a replacement recompiles every plan registered at its
//!   swap, so a concurrent reader sees either the old generation's plan handle or
//!   the new one — never a mix. An in-flight solve that grabbed the old handle
//!   finishes against the old generation's immutable data; its cache insert is
//!   refused (or swept) because the handle is no longer the registered one.
//!   `qjoin_replace_seconds{phase="encode"|"compile"|"swap"}` records where a
//!   replacement's time went; `swap` is the write-lock hold.
//! * Serving counters are relaxed atomics ([`EngineCounters`] snapshots them).

use crate::cache::{CacheStats, ShardedLru};
use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::plan::{Accuracy, PreparedPlan};
use crate::telemetry::SolveRecorder;
use qjoin_core::encoded::{
    approximate_sum_quantile_batch_encoded_traced, exact_quantile_batch_encoded_traced,
};
use qjoin_core::sampling::{quantile_by_sampling_batch_encoded, SamplingOptions};
use qjoin_core::{CoreError, PivotingOptions, QuantileResult};
use qjoin_data::{Database, EncodedDatabase};
use qjoin_query::JoinQuery;
use qjoin_ranking::Ranking;
use qjoin_telemetry::{
    current_trace_context, with_trace_context, ArgValue, FlightRecorder, Histogram,
    MetricsSnapshot, Registry, TraceBuilder, TraceContext,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// `(plan id, database generation, φ bits, accuracy bits)`.
type CacheKey = (u64, u64, u64, Option<u64>);

fn cache_key(plan: &PreparedPlan, phi: f64, accuracy: Accuracy) -> CacheKey {
    (plan.id, plan.generation, phi.to_bits(), accuracy.key_bits())
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Maximum number of cached quantile results across all shards (0 disables the
    /// cache).
    pub cache_capacity: usize,
    /// Number of independent cache shards (selected by plan id). More shards means
    /// less lock contention between plans; 1 degenerates to a single locked LRU.
    pub cache_shards: usize,
    /// Options forwarded to the §3 pivoting driver.
    pub pivoting: PivotingOptions,
    /// Intra-solve parallelism degree. `Some(t)` gives the engine its own
    /// work-stealing pool of `t` threads (`1` is guaranteed purely sequential —
    /// no worker threads are spawned and every parallel surface runs inline);
    /// `None` uses the process-wide pool sized by `QJOIN_THREADS` (or the host's
    /// available parallelism). Answers are bit-identical at any setting.
    pub threads: Option<usize>,
    /// Capacity of the per-request span-trace flight recorder (newest-first
    /// eviction). `0` disables span tracing entirely — no trace is built and
    /// requests pay nothing beyond one atomic load, the configuration the
    /// tracing-overhead benchmark compares against.
    pub flight_recorder_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 1024,
            cache_shards: 8,
            pivoting: PivotingOptions::default(),
            threads: None,
            flight_recorder_capacity: 64,
        }
    }
}

/// One served quantile: the algorithmic result plus serving metadata.
#[derive(Clone, Debug)]
pub struct EngineAnswer {
    /// The plan that served the request.
    pub plan: String,
    /// The database generation the answer was computed against.
    pub generation: u64,
    /// The requested fraction.
    pub phi: f64,
    /// The accuracy the request asked for.
    pub accuracy: Accuracy,
    /// True when the answer came from the result cache.
    pub from_cache: bool,
    /// The quantile itself.
    pub result: QuantileResult,
}

/// Monotonic serving counters (part of [`EngineStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Individual φ requests served (single and batched).
    pub quantile_requests: u64,
    /// Batch API calls served.
    pub batch_requests: u64,
    /// φ values actually solved by the recursion (cache misses).
    pub solved: u64,
    /// Plan compilations, including recompilations after database replacement.
    pub plan_compilations: u64,
    /// Combiner turns that answered at least one request besides the turn holder's
    /// own (see the `coalesce` module).
    pub coalesced_batches: u64,
    /// Cold exact requests that ran no solve of their own: every answer came from
    /// a turn's shared batch or from the last one solved.
    pub coalesced_waiters: u64,
}

/// Lock-free counter cells behind the `&self` serving methods; [`AtomicCounters::snapshot`]
/// materializes them into the public [`EngineCounters`].
#[derive(Debug, Default)]
struct AtomicCounters {
    quantile_requests: AtomicU64,
    batch_requests: AtomicU64,
    solved: AtomicU64,
    plan_compilations: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_waiters: AtomicU64,
}

impl AtomicCounters {
    fn snapshot(&self) -> EngineCounters {
        EngineCounters {
            quantile_requests: self.quantile_requests.load(Ordering::Relaxed),
            batch_requests: self.batch_requests.load(Ordering::Relaxed),
            solved: self.solved.load(Ordering::Relaxed),
            plan_compilations: self.plan_compilations.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            coalesced_waiters: self.coalesced_waiters.load(Ordering::Relaxed),
        }
    }
}

/// Storage accounting for one prepared plan: how many of its instance's relation
/// views read the catalog generation's code columns (pointer-identical
/// `Arc<EncodedColumns>`) versus columns of their own, and the code-column bytes on
/// each side. Every current plan should report zero owned relations — a plan is a
/// view over the catalog's encoded generation, not a snapshot.
#[derive(Clone, Debug)]
pub struct PlanStorageStats {
    /// The plan's registration name.
    pub plan: String,
    /// The catalog database the plan reads.
    pub database: String,
    /// Relations whose code columns are the catalog generation's own.
    pub shared_relations: usize,
    /// Relations reading code columns the catalog does not hold.
    pub owned_relations: usize,
    /// Code-column bytes of the shared relations (resident once, in the catalog).
    pub shared_bytes: usize,
    /// Code-column bytes of the owned relations (extra resident cost).
    pub owned_bytes: usize,
}

/// A point-in-time snapshot of the engine's state and counters.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Catalogued databases.
    pub databases: usize,
    /// Registered plans.
    pub plans: usize,
    /// Live cache entries (across all shards).
    pub cache_entries: usize,
    /// Configured cache capacity (across all shards).
    pub cache_capacity: usize,
    /// Number of cache shards.
    pub cache_shards: usize,
    /// Cache hit/miss/eviction/invalidation counts, aggregated over shards.
    pub cache: CacheStats,
    /// Serving counters.
    pub counters: EngineCounters,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "databases:          {}", self.databases)?;
        writeln!(f, "plans:              {}", self.plans)?;
        writeln!(
            f,
            "cache:              {}/{} entries in {} shards, {} hits, {} misses, {} evictions, {} invalidations",
            self.cache_entries,
            self.cache_capacity,
            self.cache_shards,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.invalidations
        )?;
        writeln!(
            f,
            "requests:           {} quantiles ({} batch calls), {} solved by recursion",
            self.counters.quantile_requests, self.counters.batch_requests, self.counters.solved
        )?;
        writeln!(
            f,
            "coalescing:         coalesced_batches={} coalesced_waiters={}",
            self.counters.coalesced_batches, self.counters.coalesced_waiters
        )?;
        write!(f, "plan compilations:  {}", self.counters.plan_compilations)
    }
}

/// The lock-protected mutable core: the catalog and the plan table. Everything else
/// on [`Engine`] is either immutable configuration, a sharded lock (the cache), or
/// an atomic (the counters).
#[derive(Debug, Default)]
struct EngineState {
    catalog: Catalog,
    plans: BTreeMap<String, Arc<PreparedPlan>>,
    next_plan_id: u64,
}

/// A persistent, thread-safe quantile-query engine (see the module docs).
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    state: RwLock<EngineState>,
    /// Serialises the catalog/plan writers, which compile outside `state`'s lock.
    writer: Mutex<()>,
    cache: ShardedLru<CacheKey, QuantileResult>,
    counters: AtomicCounters,
    /// The shared metric registry: live solve/cache histograms plus counters
    /// published from [`AtomicCounters`] at scrape time (see
    /// [`Engine::metrics_snapshot`]). The serving layer registers its own
    /// request-lifecycle metrics here, so one scrape covers the whole stack.
    registry: Arc<Registry>,
    /// Result-cache lookup latency (the "cache" span of a request).
    cache_lookup: Arc<Histogram>,
    /// The engine's own chunk-executor pool when `config.threads` is set;
    /// `None` delegates to the process-wide [`qjoin_par::global`] pool.
    pool: Option<qjoin_par::Pool>,
    /// The per-request span-trace ring: completed request traces land here and
    /// the `trace` verbs read them back. Also the trace-id allocator.
    recorder: Arc<FlightRecorder>,
    /// Live per-plan cold-solve concurrency, published as
    /// `qjoin_inflight_solves{plan}` at scrape time (the first observable for
    /// per-plan admission control).
    inflight_solves: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Construction time, for the uptime gauge.
    started: Instant,
}

/// RAII decrement for one plan's in-flight cold-solve counter.
struct InflightGuard(Arc<AtomicU64>);

impl InflightGuard {
    fn enter(cell: Arc<AtomicU64>) -> Self {
        cell.fetch_add(1, Ordering::Relaxed);
        InflightGuard(cell)
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

// The whole point of the `&self` refactor: an `Engine` can be shared across threads.
// This is a compile-time assertion; `tests/concurrency.rs` re-checks it publicly.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with default configuration.
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::default())
    }

    /// An engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let cache = ShardedLru::new(config.cache_capacity, config.cache_shards);
        let registry = Arc::new(Registry::new());
        let cache_lookup = registry.histogram("qjoin_cache_lookup_seconds", &[]);
        let pool = config.threads.map(qjoin_par::Pool::new);
        let recorder = Arc::new(FlightRecorder::new(config.flight_recorder_capacity));
        Engine {
            config,
            state: RwLock::new(EngineState::default()),
            writer: Mutex::new(()),
            cache,
            counters: AtomicCounters::default(),
            registry,
            cache_lookup,
            pool,
            recorder,
            inflight_solves: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// The per-request span-trace flight recorder (capacity 0 when tracing is
    /// disabled). The serving layers allocate trace ids from it and the `trace`
    /// verbs read completed traces back out.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Runs `f` under a request-scoped trace context. When the caller already
    /// installed an ambient context (the server traces the whole request
    /// lifecycle), it is reused untouched; otherwise — engine-direct callers
    /// like the REPL — a fresh root trace is created, `f`'s spans attach to its
    /// root span, and the completed trace lands in the flight recorder. With
    /// the recorder disabled this is a single atomic load plus the call.
    fn with_request_trace<R>(
        &self,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.recorder.is_enabled() || current_trace_context().is_some() {
            return f();
        }
        let builder = TraceBuilder::new(self.recorder.next_trace_id());
        let root = builder.next_span_id();
        let started = builder.epoch();
        let result = with_trace_context(
            TraceContext {
                builder: builder.clone(),
                parent: root,
            },
            f,
        );
        builder.record(root, None, name, started, started.elapsed(), args);
        self.recorder.push(builder.finish());
        result
    }

    /// Runs `f` with the engine's executor pool installed as the thread's current
    /// pool: the engine's own pool when `config.threads` is set, the process-wide
    /// one otherwise. Every compute entry point (solving, compiling) goes through
    /// here so the `threads` knob governs all intra-engine parallelism.
    fn run_pooled<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => qjoin_par::with_pool(pool, f),
            None => qjoin_par::with_pool(qjoin_par::global(), f),
        }
    }

    /// The executor's counters: the engine's own pool when configured, the
    /// process-wide pool otherwise.
    pub fn pool_stats(&self) -> qjoin_par::PoolStats {
        match &self.pool {
            Some(pool) => pool.stats(),
            None => qjoin_par::global().stats(),
        }
    }

    /// The state for reading, recovered from poisoning: see [`Engine::write_state`].
    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, EngineState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The state for writing, recovered from poisoning. A panic under this guard
    /// cannot leave [`EngineState`] half-written, because every write section does
    /// all its fallible work before its first write and then only moves values:
    /// - `create_database`: one `Catalog::create`, which checks the name, then inserts;
    /// - `replace_database`: `Catalog::replace` (a lookup, then one `mem::replace`),
    ///   then plan inserts;
    /// - `register`: one id bump, then one insert;
    /// - `drop_plan`: one remove.
    ///
    /// Everything else the writers do runs outside the guard: encoding, compiling,
    /// timing, tracing and dropping the previous generation.
    fn write_state(&self) -> std::sync::RwLockWriteGuard<'_, EngineState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The writers' serialisation point. The mutex guards no data, so a writer
    /// that panicked while holding it left nothing behind to distrust.
    fn writer(&self) -> MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One dictionary-coding pass over a database. A database the encoding cannot
    /// index is refused with [`qjoin_core::CoreError::TooLarge`].
    fn encode(database: &Database) -> Result<Arc<EncodedDatabase>, EngineError> {
        Ok(Arc::new(EncodedDatabase::encode(database)?))
    }

    /// Runs one phase of a replacement, timed into `qjoin_replace_seconds{phase}`
    /// and, when a trace is live, recorded as a child span of it.
    fn replace_phase<R>(&self, phase: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = f();
        let elapsed = started.elapsed();
        self.registry
            .histogram("qjoin_replace_seconds", &[("phase", phase)])
            .record_duration(elapsed);
        if let Some(ctx) = current_trace_context() {
            ctx.builder
                .record_new(Some(ctx.parent), phase, started, elapsed, Vec::new());
        }
        result
    }

    /// Adds a database to the catalog under a fresh name, keeping only its encoded
    /// form. Accepts an owned [`Database`] or an `Arc<Database>` already shared.
    pub fn create_database(
        &self,
        name: &str,
        database: impl Into<Arc<Database>>,
    ) -> Result<(), EngineError> {
        let _writer = self.writer();
        if self.read_state().catalog.contains(name) {
            return Err(EngineError::DuplicateDatabase(name.to_string()));
        }
        let encoded = Self::encode(&database.into())?;
        self.write_state().catalog.create(name, encoded)
    }

    /// Replaces a catalogued database, recompiling every dependent plan against the
    /// new contents and invalidating their cached results. All recompiled plans share
    /// the replacement's encoded form by handle, and the caller's database is dropped
    /// before they compile. The operation is atomic: if any dependent plan fails to
    /// recompile (e.g. the new database no longer matches a registered query's
    /// schema), or the new database cannot be encoded, nothing changes. Concurrent
    /// readers see either the old generation's plans or the new ones, never a mixture,
    /// and are never blocked by the encoding or the recompilation (see the module docs).
    pub fn replace_database(
        &self,
        name: &str,
        database: impl Into<Arc<Database>>,
    ) -> Result<(), EngineError> {
        let database: Arc<Database> = database.into();
        let args = vec![("database", ArgValue::Str(name.to_string()))];
        self.with_request_trace("replace", args, || self.replace_inner(name, database))
    }

    fn replace_inner(&self, name: &str, database: Arc<Database>) -> Result<(), EngineError> {
        // Validate the name before paying the encoding pass.
        self.read_state().catalog.get(name)?;
        // One encoding pass per generation, shared by every recompiled plan.
        let encoded = self.replace_phase("encode", || Self::encode(&database))?;
        drop(database);
        let _writer = self.writer();
        let (new_generation, dependents) = {
            let state = self.read_state();
            let dependents: Vec<Arc<PreparedPlan>> =
                (state.plans.values().filter(|p| p.database == name).cloned()).collect();
            (state.catalog.get(name)?.generation + 1, dependents)
        };
        let recompiled = self.replace_phase("compile", || {
            let compile = |plan: &Arc<PreparedPlan>| {
                PreparedPlan::compile(
                    &plan.name,
                    plan.id,
                    name,
                    new_generation,
                    plan.encoded()?.query().clone(),
                    plan.ranking.clone(),
                    &encoded,
                )
                .map(Arc::new)
            };
            self.run_pooled(|| {
                dependents
                    .iter()
                    .map(compile)
                    .collect::<Result<Vec<_>, _>>()
            })
        })?;
        // The swap: the only step that excludes readers. The previous generation
        // comes out of it alive: it and `dependents` are dropped when this function
        // returns, outside the lock.
        let mut state = self.write_state();
        let _previous = self.replace_phase("swap", move || {
            let previous = state.catalog.replace(name, encoded)?;
            for plan in &recompiled {
                state.plans.insert(plan.name.clone(), Arc::clone(plan));
            }
            Ok::<_, EngineError>(previous)
        })?;
        for plan in &dependents {
            self.cache
                .invalidate(|key| key.0 == plan.id && key.1 < new_generation);
        }
        self.counters
            .plan_compilations
            .fetch_add(dependents.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Registers a `(query, ranking)` pair against a catalogued database, compiling it
    /// into a prepared plan. Returns a shared handle to the compiled plan.
    pub fn register(
        &self,
        plan_name: &str,
        database_name: &str,
        query: JoinQuery,
        ranking: Ranking,
    ) -> Result<Arc<PreparedPlan>, EngineError> {
        let _writer = self.writer();
        let (id, entry) = {
            let state = self.read_state();
            if state.plans.contains_key(plan_name) {
                return Err(EngineError::DuplicatePlan(plan_name.to_string()));
            }
            (
                state.next_plan_id,
                state.catalog.get(database_name)?.clone(),
            )
        };
        let plan = Arc::new(self.run_pooled(|| {
            PreparedPlan::compile(
                plan_name,
                id,
                database_name,
                entry.generation,
                query,
                ranking,
                &entry.encoded,
            )
        })?);
        let mut state = self.write_state();
        state.next_plan_id += 1;
        state.plans.insert(plan_name.to_string(), Arc::clone(&plan));
        drop(state);
        self.counters
            .plan_compilations
            .fetch_add(1, Ordering::Relaxed);
        Ok(plan)
    }

    /// Drops a plan and its cached results.
    pub fn drop_plan(&self, plan_name: &str) -> Result<(), EngineError> {
        let _writer = self.writer();
        let plan = (self.write_state().plans)
            .remove(plan_name)
            .ok_or_else(|| EngineError::UnknownPlan(plan_name.to_string()))?;
        self.cache.invalidate(|key| key.0 == plan.id);
        Ok(())
    }

    /// Looks up a prepared plan by name, returning a shared handle.
    pub fn plan(&self, plan_name: &str) -> Result<Arc<PreparedPlan>, EngineError> {
        self.read_state()
            .plans
            .get(plan_name)
            .map(Arc::clone)
            .ok_or_else(|| EngineError::UnknownPlan(plan_name.to_string()))
    }

    /// A snapshot of the registered plans in name order.
    pub fn plans(&self) -> Vec<Arc<PreparedPlan>> {
        self.read_state().plans.values().map(Arc::clone).collect()
    }

    /// A snapshot of the database catalog. Entries hold `Arc<EncodedDatabase>`
    /// handles, so the snapshot is cheap (no column is copied) and
    /// immutable-consistent: it reflects one instant of catalog state.
    pub fn catalog(&self) -> Catalog {
        self.read_state().catalog.clone()
    }

    /// Serves an exact φ-quantile from a prepared plan (cache-aware).
    pub fn quantile(&self, plan_name: &str, phi: f64) -> Result<EngineAnswer, EngineError> {
        self.quantile_with(plan_name, phi, Accuracy::Exact)
    }

    /// Serves a φ-quantile at the requested accuracy (cache-aware): the batch path
    /// with one φ (see [`Engine::quantile_batch_with`]).
    pub fn quantile_with(
        &self,
        plan_name: &str,
        phi: f64,
        accuracy: Accuracy,
    ) -> Result<EngineAnswer, EngineError> {
        let args = vec![
            ("verb", ArgValue::Str("quantile".to_string())),
            ("plan", ArgValue::Str(plan_name.to_string())),
            ("phi", ArgValue::F64(phi)),
        ];
        self.with_request_trace("request", args, || {
            let plan = self.plan(plan_name)?;
            let mut answers = self.serve(&plan, &[phi], accuracy)?;
            let lost = || CoreError::Internal("a one-φ request got no answer".into());
            Ok(answers.pop().ok_or_else(lost)?)
        })
    }

    /// Solves a batch of fractions against a plan handle, bypassing the cache: the
    /// shared miss path of [`Engine::quantile_with`], [`Engine::quantile_batch_with`],
    /// and the combiner's turns. Returns one result per φ, in input
    /// order, and bumps the `solved` counter.
    fn solve_batch_uncached(
        &self,
        plan: &PreparedPlan,
        phis: &[f64],
        accuracy: Accuracy,
    ) -> Result<Vec<QuantileResult>, EngineError> {
        plan.check_accuracy(accuracy)?;
        let encoded = plan.encoded()?;
        // When a request trace is live, allocate the solve span up front so the
        // per-phase child spans the driver emits can parent to it; the span
        // itself is recorded below once the solve's duration is known (children
        // may be recorded before their parent).
        let ambient = current_trace_context();
        let solve_span = ambient
            .as_ref()
            .map(|ctx| (ctx.builder.clone(), ctx.parent, ctx.builder.next_span_id()));
        let tracer = SolveRecorder::for_plan(
            &self.registry,
            &plan.name,
            solve_span
                .as_ref()
                .map(|(builder, _, span)| (builder.clone(), *span)),
        );
        let _inflight = InflightGuard::enter(self.inflight_cell(&plan.name));
        let solve_started = Instant::now();
        // Every request runs on the plan's encoded instance (built once per catalog
        // generation), with the engine's executor pool installed, so the `threads`
        // knob (and `QJOIN_THREADS`) governs every chunked hot loop.
        let (ranking, pivoting) = (&plan.ranking, &self.config.pivoting);
        let results = self.run_pooled(|| match accuracy {
            Accuracy::Exact => {
                exact_quantile_batch_encoded_traced(encoded, ranking, phis, pivoting, &tracer)
            }
            Accuracy::Approximate { epsilon } => approximate_sum_quantile_batch_encoded_traced(
                encoded, ranking, phis, epsilon, pivoting, &tracer,
            ),
            Accuracy::Bounded {
                epsilon,
                delta,
                seed,
            } => {
                let options = SamplingOptions {
                    epsilon,
                    delta,
                    seed,
                };
                quantile_by_sampling_batch_encoded(encoded, ranking, phis, &options)
            }
        })?;
        let solve_elapsed = solve_started.elapsed();
        tracer.finish(solve_elapsed);
        if let Some((builder, parent, span)) = solve_span {
            builder.record(
                span,
                Some(parent),
                "solve",
                solve_started,
                solve_elapsed,
                vec![
                    ("plan", ArgValue::Str(plan.name.clone())),
                    ("phis", ArgValue::U64(phis.len() as u64)),
                    ("rounds", ArgValue::U64(tracer.rounds())),
                ],
            );
        }
        self.counters
            .solved
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        Ok(results)
    }

    /// Runs one **uncached** solve for `explain analyze` under a dedicated span
    /// trace — bypassing the result cache and the combiner, so the trace
    /// always observes the plan's own rounds — and returns the completed trace.
    /// The trace also lands in the flight recorder (when enabled), so the
    /// `trace` verbs can replay exactly the solve the report summarizes.
    pub(crate) fn traced_uncached_solve(
        &self,
        plan: &Arc<PreparedPlan>,
        phi: f64,
        accuracy: Accuracy,
    ) -> Result<qjoin_telemetry::Trace, EngineError> {
        let builder = TraceBuilder::new(self.recorder.next_trace_id());
        let root = builder.next_span_id();
        let started = builder.epoch();
        let result = with_trace_context(
            TraceContext {
                builder: builder.clone(),
                parent: root,
            },
            || self.solve_batch_uncached(plan, &[phi], accuracy),
        );
        builder.record(
            root,
            None,
            "explain-analyze",
            started,
            started.elapsed(),
            vec![
                ("plan", ArgValue::Str(plan.name.clone())),
                ("phi", ArgValue::F64(phi)),
            ],
        );
        let trace = builder.finish();
        if self.recorder.is_enabled() {
            self.recorder.push(trace.clone());
        }
        result?;
        Ok(trace)
    }

    /// The shared in-flight counter cell for one plan (created on first use;
    /// cells persist so the `qjoin_inflight_solves{plan}` gauge keeps reporting
    /// an explicit zero once a plan has solved at least once).
    fn inflight_cell(&self, plan: &str) -> Arc<AtomicU64> {
        // The map only ever gains a cell, so a panic under its lock leaves it whole.
        let mut map = (self.inflight_solves.lock()).unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(plan.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Records a waiter's time in the combiner as a `coalesce-wait` span,
    /// referencing the trace id of the request whose solve answered it, when that
    /// request was itself traced.
    fn record_coalesce_wait(&self, entered: Instant, leader_tag: Option<u64>) {
        if let Some(ctx) = current_trace_context() {
            let mut args = Vec::new();
            if let Some(tag) = leader_tag {
                args.push(("leader_trace", ArgValue::Str(format!("{tag:x}"))));
            }
            ctx.builder.record_new(
                Some(ctx.parent),
                "coalesce-wait",
                entered,
                entered.elapsed(),
                args,
            );
        }
    }

    /// A cache lookup timed into the `qjoin_cache_lookup_seconds` histogram —
    /// the "cache" span of a request's lifecycle.
    fn cache_get_timed(&self, plan_id: u64, key: &CacheKey) -> Option<QuantileResult> {
        let started = Instant::now();
        let result = self.cache.get(plan_id, key);
        self.cache_lookup.record_duration(started.elapsed());
        if let Some(ctx) = current_trace_context() {
            ctx.builder.record_new(
                Some(ctx.parent),
                "cache-lookup",
                started,
                started.elapsed(),
                vec![("hit", ArgValue::Bool(result.is_some()))],
            );
        }
        result
    }

    /// Caches solved results — but only if `plan` is still the registered handle of
    /// its name. A solve that raced `replace_database` (or `drop_plan`) must not
    /// resurrect a dead entry after the writer's invalidation sweep. The sweep runs
    /// after the swap, and holding the read lock across the check *and* the inserts
    /// orders the pair against the swap: an insert before it is swept, a check
    /// after it refuses.
    fn insert_cached(
        &self,
        plan: &PreparedPlan,
        phis: &[f64],
        accuracy: Accuracy,
        results: &[QuantileResult],
    ) {
        let state = self.read_state();
        let current = state.plans.get(&plan.name);
        if current.is_some_and(|c| c.id == plan.id && c.generation == plan.generation) {
            for (&phi, result) in phis.iter().zip(results) {
                let key = cache_key(plan, phi, accuracy);
                self.cache.insert(plan.id, key, result.clone());
            }
        }
    }

    /// Serves many exact φ-quantiles from a prepared plan. Cached fractions are
    /// answered from the cache; all remaining fractions are solved together in **one**
    /// shared divide-and-conquer pass (see [`qjoin_core::batch`]).
    pub fn quantile_batch(
        &self,
        plan_name: &str,
        phis: &[f64],
    ) -> Result<Vec<EngineAnswer>, EngineError> {
        self.quantile_batch_with(plan_name, phis, Accuracy::Exact)
    }

    /// [`Engine::quantile_batch`] at an explicit accuracy. Every answer in the batch
    /// derives from the same plan handle, i.e. one database generation.
    ///
    /// Concurrency: the plan handle is cloned under a brief read lock; the solve runs
    /// entirely outside any lock against the handle's immutable generation of data.
    /// Cold **exact** misses additionally go through the handle's combiner:
    /// concurrent misses against the same plan generation merge into one shared
    /// batched solve instead of each paying a full recursion.
    pub fn quantile_batch_with(
        &self,
        plan_name: &str,
        phis: &[f64],
        accuracy: Accuracy,
    ) -> Result<Vec<EngineAnswer>, EngineError> {
        let args = vec![
            ("verb", ArgValue::Str("batch".to_string())),
            ("plan", ArgValue::Str(plan_name.to_string())),
            ("phis", ArgValue::U64(phis.len() as u64)),
        ];
        self.with_request_trace("request", args, || {
            let plan = self.plan(plan_name)?;
            self.counters.batch_requests.fetch_add(1, Ordering::Relaxed);
            self.serve(&plan, phis, accuracy)
        })
    }

    /// The one miss path behind `quantile_with` and `quantile_batch_with`: one cache
    /// lookup per φ, then one shared solve of the misses, answers in request order.
    fn serve(
        &self,
        plan: &PreparedPlan,
        phis: &[f64],
        accuracy: Accuracy,
    ) -> Result<Vec<EngineAnswer>, EngineError> {
        self.counters
            .quantile_requests
            .fetch_add(phis.len() as u64, Ordering::Relaxed);
        let cached: Vec<Option<QuantileResult>> = (phis.iter())
            .map(|&phi| self.cache_get_timed(plan.id, &cache_key(plan, phi, accuracy)))
            .collect();
        let misses: Vec<f64> = (phis.iter().zip(&cached))
            .filter_map(|(&phi, hit)| hit.is_none().then_some(phi))
            .collect();
        let mut solved = match accuracy {
            _ if misses.is_empty() => Vec::new(),
            Accuracy::Exact => self.combine(plan, &misses)?,
            // Approximate and sampled answers depend on the request's own (ε, δ,
            // seed), so they are never shared across requests.
            _ => {
                let results = self.solve_batch_uncached(plan, &misses, accuracy)?;
                self.insert_cached(plan, &misses, accuracy, &results);
                results
            }
        }
        .into_iter();
        let lost = || CoreError::Internal("a batch solve lost a target".into());
        (phis.iter().zip(cached))
            .map(|(&phi, hit)| {
                let from_cache = hit.is_some();
                Ok(EngineAnswer {
                    plan: plan.name.clone(),
                    generation: plan.generation,
                    phi,
                    accuracy,
                    from_cache,
                    result: hit.or_else(|| solved.next()).ok_or_else(lost)?,
                })
            })
            .collect()
    }

    /// Exact misses join the plan handle's combiner (see the `coalesce` module):
    /// whichever request holds the turn solves every target queued so far in one
    /// [`Engine::exact_round`].
    fn combine(
        &self,
        plan: &PreparedPlan,
        phis: &[f64],
    ) -> Result<Vec<QuantileResult>, EngineError> {
        let entered = Instant::now();
        let served = (plan.combiner).serve(phis, |round| self.exact_round(plan, round));
        self.counters
            .coalesced_batches
            .fetch_add(u64::from(served.combined), Ordering::Relaxed);
        if served.waited {
            self.counters
                .coalesced_waiters
                .fetch_add(1, Ordering::Relaxed);
            self.record_coalesce_wait(entered, served.tag);
        }
        served.results
    }

    /// One combiner turn's solve. Results reach the LRU before the combiner hands
    /// them to other requests, so later arrivals hit the cache; the tag is this
    /// request's trace id, so the requests it served can point at the solve.
    fn exact_round(
        &self,
        plan: &PreparedPlan,
        phis: &[f64],
    ) -> Result<(Vec<QuantileResult>, u64), EngineError> {
        let results = self.solve_batch_uncached(plan, phis, Accuracy::Exact)?;
        self.insert_cached(plan, phis, Accuracy::Exact, &results);
        let tag = current_trace_context().map_or(0, |ctx| ctx.builder.id().0);
        Ok((results, tag))
    }

    /// Per-plan storage accounting: for every registered plan, how many of its
    /// relation views read the code columns of the plan's catalog generation and
    /// how many read columns of their own, with code-column byte totals. Sharing is
    /// checked by pointer equality on the columns, so this is a direct observation,
    /// from the serving layer, that every plan is a view over the catalog.
    pub fn plan_storage_stats(&self) -> Vec<PlanStorageStats> {
        let state = self.read_state();
        state
            .plans
            .values()
            .map(|plan| {
                let catalog = state.catalog.get(&plan.database).ok();
                let mut stats = PlanStorageStats {
                    plan: plan.name.clone(),
                    database: plan.database.clone(),
                    shared_relations: 0,
                    owned_relations: 0,
                    shared_bytes: 0,
                    owned_bytes: 0,
                };
                for (name, view) in plan.encoded_instance.iter().flat_map(|i| i.relations()) {
                    let shared = catalog
                        .and_then(|entry| entry.encoded.relation(name).ok())
                        .is_some_and(|columns| Arc::ptr_eq(view.base(), columns));
                    let bytes = view.base().code_bytes();
                    if shared {
                        stats.shared_relations += 1;
                        stats.shared_bytes += bytes;
                    } else {
                        stats.owned_relations += 1;
                        stats.owned_bytes += bytes;
                    }
                }
                stats
            })
            .collect()
    }

    /// The cache's aggregated hit/miss/eviction/invalidation counters, as a
    /// machine-readable struct (also embedded in [`Engine::stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-shard cache counters, in shard order (shard = plan id mod shard count).
    pub fn cache_shard_stats(&self) -> Vec<CacheStats> {
        self.cache.shard_stats()
    }

    /// A snapshot of the engine's state and counters.
    pub fn stats(&self) -> EngineStats {
        let (databases, plans) = {
            let state = self.read_state();
            (state.catalog.len(), state.plans.len())
        };
        EngineStats {
            databases,
            plans,
            cache_entries: self.cache.len(),
            cache_capacity: self.cache.capacity(),
            cache_shards: self.cache.shards(),
            cache: self.cache.stats(),
            counters: self.counters.snapshot(),
        }
    }

    /// The engine's shared metric registry. Layers above the engine (the server's
    /// request-lifecycle timing, its slow-query log) register their metrics here,
    /// so one [`Engine::metrics_snapshot`] scrape covers the whole stack.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Time since the engine was constructed.
    pub fn uptime(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Live entries per cache shard, in shard order.
    pub fn cache_shard_lens(&self) -> Vec<usize> {
        self.cache.shard_lens()
    }

    /// Publishes the engine's counters, cache statistics, catalog gauges, and
    /// uptime into the registry, then snapshots **everything** registered there
    /// (including live solve histograms and any server-side metrics).
    ///
    /// Every exposition surface — the human `stats` dump's derived lines, `stats
    /// json`, and the Prometheus `metrics` verb — renders from this one snapshot,
    /// so the surfaces cannot diverge. The engine's atomic counters remain the
    /// single source of truth; the registry copies are overwritten on every call.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let registry = &self.registry;
        let counters = self.counters.snapshot();
        registry.publish_counter(
            "qjoin_quantile_requests_total",
            &[],
            counters.quantile_requests,
        );
        registry.publish_counter("qjoin_batch_requests_total", &[], counters.batch_requests);
        registry.publish_counter("qjoin_solved_total", &[], counters.solved);
        registry.publish_counter(
            "qjoin_plan_compilations_total",
            &[],
            counters.plan_compilations,
        );
        registry.publish_counter(
            "qjoin_coalesced_batches_total",
            &[],
            counters.coalesced_batches,
        );
        registry.publish_counter(
            "qjoin_coalesced_waiters_total",
            &[],
            counters.coalesced_waiters,
        );

        {
            let inflight = (self.inflight_solves.lock()).unwrap_or_else(PoisonError::into_inner);
            for (plan, cell) in inflight.iter() {
                registry.publish_gauge(
                    "qjoin_inflight_solves",
                    &[("plan", plan)],
                    cell.load(Ordering::Relaxed) as f64,
                );
            }
        }

        let cache = self.cache.stats();
        registry.publish_counter("qjoin_cache_hits_total", &[], cache.hits);
        registry.publish_counter("qjoin_cache_misses_total", &[], cache.misses);
        registry.publish_counter("qjoin_cache_evictions_total", &[], cache.evictions);
        registry.publish_counter("qjoin_cache_invalidations_total", &[], cache.invalidations);
        registry.publish_gauge("qjoin_cache_entries", &[], self.cache.len() as f64);
        registry.publish_gauge("qjoin_cache_capacity", &[], self.cache.capacity() as f64);
        for (shard, len) in self.cache.shard_lens().into_iter().enumerate() {
            let shard = shard.to_string();
            registry.publish_gauge(
                "qjoin_cache_shard_entries",
                &[("shard", &shard)],
                len as f64,
            );
        }

        {
            let state = self.read_state();
            registry.publish_gauge("qjoin_databases", &[], state.catalog.len() as f64);
            registry.publish_gauge("qjoin_plans", &[], state.plans.len() as f64);
            for (name, entry) in state.catalog.iter() {
                registry.publish_gauge(
                    "qjoin_db_generation",
                    &[("db", name)],
                    entry.generation as f64,
                );
            }
        }
        registry.publish_gauge(
            "qjoin_uptime_seconds",
            &[],
            self.started.elapsed().as_secs_f64(),
        );

        // Executor counters: chunk tasks executed and cross-worker steals on the
        // pool this engine solves with (its own when `threads` is configured, the
        // process-wide pool otherwise).
        let pool = self.pool_stats();
        registry.publish_gauge("qjoin_threads", &[], pool.threads as f64);
        registry.publish_counter("qjoin_parallel_tasks_total", &[], pool.tasks);
        registry.publish_counter("qjoin_parallel_steals_total", &[], pool.steals);
        registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::wide;
    use qjoin_core::solver::exact_quantile;
    use qjoin_core::CoreError;
    use qjoin_query::query::{path_query, social_network_query};
    use qjoin_query::variable::vars;
    use qjoin_workload::social::SocialConfig;

    fn social_engine(rows: usize, seed: u64) -> (Engine, SocialConfig) {
        let config = SocialConfig {
            rows_per_relation: rows,
            seed,
            ..Default::default()
        };
        let (_, database) = config.generate().into_parts();
        let engine = Engine::new();
        engine.create_database("social", database).unwrap();
        engine
            .register(
                "likes",
                "social",
                social_network_query(),
                Ranking::sum(vars(&["l2", "l3"])),
            )
            .unwrap();
        (engine, config)
    }

    #[test]
    fn serves_quantiles_identical_to_the_one_shot_solver() {
        let (engine, config) = social_engine(150, 42);
        let instance = config.generate();
        let ranking = config.likes_ranking();
        for phi in [0.1, 0.5, 0.9] {
            let served = engine.quantile("likes", phi).unwrap();
            let direct = exact_quantile(&instance, &ranking, phi).unwrap();
            assert_eq!(served.result.weight, direct.weight, "phi {phi}");
            assert_eq!(served.result.total_answers, direct.total_answers);
            assert!(!served.from_cache);
        }
    }

    /// A thread that panics holding the state's write guard (and the in-flight
    /// map's lock) poisons both; every later request recovers them and succeeds.
    /// Fails if `read_state`/`write_state` or `inflight_cell` go back to `expect`.
    #[test]
    fn a_panic_under_the_state_write_guard_fails_no_later_request() {
        let (engine, config) = social_engine(60, 4);
        let before = engine.quantile("likes", 0.5).unwrap();
        let panicked = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let _state = engine.write_state();
                let _inflight = engine.inflight_solves.lock();
                panic!("a writer panics under the engine's locks");
            });
            writer.join()
        });
        assert!(panicked.is_err());
        assert!(engine.state.is_poisoned() && engine.inflight_solves.is_poisoned());

        let ranking = Ranking::sum(vars(&["l2", "l3"]));
        (engine.register("again", "social", social_network_query(), ranking)).unwrap();
        let again = engine.quantile("again", 0.5).unwrap();
        assert_eq!(again.result.weight, before.result.weight);
        let (_, database) = SocialConfig { seed: 5, ..config }.generate().into_parts();
        engine.replace_database("social", database).unwrap();
        let after = engine.quantile("likes", 0.5).unwrap();
        assert_eq!((after.generation, after.from_cache), (2, false));
        engine.metrics_snapshot();
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let (engine, _) = social_engine(100, 7);
        let first = engine.quantile("likes", 0.5).unwrap();
        let second = engine.quantile("likes", 0.5).unwrap();
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(first.result.weight, second.result.weight);
        let stats = engine.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.counters.solved, 1);
        assert_eq!(stats.counters.quantile_requests, 2);
        assert_eq!(engine.cache_stats().hits, 1);
        // The per-shard breakdown sums to the aggregate.
        let per_shard = engine.cache_shard_stats();
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), 1);
    }

    #[test]
    fn batch_mixes_cache_hits_with_one_shared_solve() {
        let (engine, _) = social_engine(100, 9);
        engine.quantile("likes", 0.5).unwrap();
        let answers = engine.quantile_batch("likes", &[0.25, 0.5, 0.75]).unwrap();
        assert!(!answers[0].from_cache);
        assert!(answers[1].from_cache);
        assert!(!answers[2].from_cache);
        // Batched answers equal single-φ answers.
        for answer in &answers {
            let single = engine.quantile("likes", answer.phi).unwrap();
            assert_eq!(single.result.weight, answer.result.weight);
        }
        assert_eq!(engine.stats().counters.batch_requests, 1);
    }

    #[test]
    fn replace_database_invalidates_cached_results() {
        let (engine, _) = social_engine(80, 1);
        let before = engine.quantile("likes", 0.5).unwrap();
        assert!(engine.quantile("likes", 0.5).unwrap().from_cache);

        let other = SocialConfig {
            rows_per_relation: 80,
            seed: 999,
            ..Default::default()
        };
        let (_, new_db) = other.generate().into_parts();
        engine.replace_database("social", new_db).unwrap();

        let after = engine.quantile("likes", 0.5).unwrap();
        assert!(
            !after.from_cache,
            "replacement must invalidate cached results"
        );
        assert_eq!(engine.catalog().get("social").unwrap().generation, 2);
        assert_eq!(engine.plan("likes").unwrap().generation, 2);
        assert_eq!(before.generation, 1);
        assert_eq!(after.generation, 2);
        // Different seeds virtually always shift the median.
        assert_ne!(
            (before.result.total_answers, before.result.weight.clone()),
            (after.result.total_answers, after.result.weight.clone())
        );
        assert!(engine.stats().cache.invalidations > 0);
    }

    #[test]
    fn replace_database_is_atomic_on_recompile_failure() {
        let (engine, _) = social_engine(60, 3);
        let before_gen = engine.plan("likes").unwrap().generation;
        // A database missing the registered query's relations cannot recompile.
        let bad = Database::new();
        assert!(engine.replace_database("social", bad).is_err());
        assert_eq!(engine.plan("likes").unwrap().generation, before_gen);
        assert_eq!(engine.catalog().get("social").unwrap().generation, 1);
        assert!(engine.quantile("likes", 0.5).is_ok());
    }

    #[test]
    fn an_uncountable_plan_is_a_typed_refusal_not_a_poisoned_engine() {
        let (engine, _) = social_engine(60, 3);
        // 8192^10 = 2^130 answers: the counting pass would overflow and panic
        // (under the state lock, before this PR, wedging every later request).
        let (query, huge) = wide(8192, 10);
        let ranking = Ranking::max(query.variables());
        engine.create_database("huge", huge.clone()).unwrap();
        let refused = engine.register("wide", "huge", query.clone(), ranking.clone());
        let too_large = EngineError::TooLarge {
            plan: "wide".into(),
        };
        assert_eq!(refused.unwrap_err(), too_large);
        assert!(matches!(
            engine.plan("wide").unwrap_err(),
            EngineError::UnknownPlan(_)
        ));

        // 2^10 answers register fine; replacing the database with the huge one is
        // refused, and atomically: generation, plan and answers stay put.
        engine.create_database("w", wide(2, 10).1).unwrap();
        engine.register("wide", "w", query, ranking).unwrap();
        let before = engine.quantile("wide", 0.5).unwrap();
        assert_eq!(before.result.total_answers, 1024);
        assert_eq!(engine.replace_database("w", huge).unwrap_err(), too_large);
        assert_eq!(engine.catalog().get("w").unwrap().generation, 1);
        assert_eq!(engine.plan("wide").unwrap().generation, 1);
        let after = engine.quantile("wide", 0.5).unwrap();
        assert!(
            after.from_cache,
            "the refused replacement invalidated nothing"
        );
        // Other plans, and later writers, keep working.
        assert!(engine.quantile("likes", 0.5).is_ok());
        engine.replace_database("w", wide(3, 10).1).unwrap();
        assert_eq!(
            engine.quantile("wide", 0.5).unwrap().result.total_answers,
            3u128.pow(10)
        );
    }

    #[test]
    fn a_replacement_holds_the_write_lock_for_a_sliver_of_its_work() {
        // Two plans over a 21 000-tuple database, five replacements. The ratio is
        // of the engine's own numbers: encode and compile run with no state lock
        // held, `swap` is the whole write-lock hold.
        let database = |seed| {
            let config = SocialConfig {
                rows_per_relation: 7_000,
                seed,
                ..Default::default()
            };
            config.generate().into_parts().1
        };
        let engine = Engine::with_config(EngineConfig {
            flight_recorder_capacity: 8,
            ..Default::default()
        });
        engine.create_database("social", database(1)).unwrap();
        for (plan, ranking) in [
            ("likes", Ranking::sum(vars(&["l2", "l3"]))),
            ("max", Ranking::max(social_network_query().variables())),
        ] {
            engine
                .register(plan, "social", social_network_query(), ranking)
                .unwrap();
        }
        assert!(engine.catalog().get("social").unwrap().encoded.total_rows() >= 20_000);
        for seed in 2..7 {
            engine.replace_database("social", database(seed)).unwrap();
        }
        let snapshot = engine.metrics_snapshot();
        let phase = |phase: &str| {
            let histogram = snapshot.histogram("qjoin_replace_seconds", &[("phase", phase)]);
            let histogram = histogram.unwrap_or_else(|| panic!("no {phase} histogram"));
            assert_eq!(histogram.count(), 5, "{phase}");
            histogram.sum()
        };
        let (encode, compile, swap) = (phase("encode"), phase("compile"), phase("swap"));
        assert!(
            swap * 20 < encode + compile,
            "swap {swap} ns vs encode {encode} ns + compile {compile} ns"
        );

        // With the flight recorder on, each replacement is a `replace` trace whose
        // children are the three phases, in order and inside the root.
        let trace = engine.recorder().last(1).pop().expect("a replace trace");
        let root = trace.root().expect("root span");
        assert_eq!(root.name, "replace");
        let phases: Vec<&str> = (trace.spans.iter())
            .filter(|span| span.parent == Some(root.id))
            .map(|span| span.name)
            .collect();
        assert_eq!(phases, ["encode", "compile", "swap"]);
        for span in trace.spans.iter().filter(|span| span.parent.is_some()) {
            assert!(span.start_ns >= root.start_ns && span.end_ns() <= root.end_ns());
        }
    }

    #[test]
    fn intractable_plans_serve_approximate_only() {
        let config = qjoin_workload::path::PathConfig {
            atoms: 3,
            tuples_per_relation: 40,
            join_domain: 5,
            weight_range: 100,
            skew: 0.0,
            seed: 5,
        };
        let instance = config.generate();
        let (query, database) = instance.into_parts();
        let engine = Engine::new();
        engine.create_database("paths", database).unwrap();
        engine
            .register(
                "fullsum",
                "paths",
                query.clone(),
                Ranking::sum(query.variables()),
            )
            .unwrap();
        assert!(matches!(
            engine.quantile("fullsum", 0.5).unwrap_err(),
            EngineError::PlanCannotServe { .. }
        ));
        let approx = engine
            .quantile_with("fullsum", 0.5, Accuracy::Approximate { epsilon: 0.1 })
            .unwrap();
        assert!(approx.result.total_answers > 0);
        // Approximate results are cached under their own key.
        let again = engine
            .quantile_with("fullsum", 0.5, Accuracy::Approximate { epsilon: 0.1 })
            .unwrap();
        assert!(again.from_cache);
    }

    #[test]
    fn approximate_requests_use_the_encoded_path_and_tag_telemetry() {
        let config = qjoin_workload::path::PathConfig {
            atoms: 3,
            tuples_per_relation: 40,
            join_domain: 5,
            weight_range: 100,
            skew: 0.0,
            seed: 5,
        };
        let instance = config.generate();
        let (query, database) = instance.into_parts();
        let engine = Engine::new();
        engine.create_database("paths", database).unwrap();
        engine
            .register(
                "fullsum",
                "paths",
                query.clone(),
                Ranking::sum(query.variables()),
            )
            .unwrap();
        let approx = engine
            .quantile_with("fullsum", 0.5, Accuracy::Approximate { epsilon: 0.1 })
            .unwrap();
        assert!(approx.result.total_answers > 0);
        let snapshot = engine.metrics_snapshot();
        let plan = [("plan", "fullsum")];
        assert_eq!(
            snapshot.counter("qjoin_solve_encoded_total", &plan),
            Some(1),
            "one approximate solve was counted"
        );
    }

    #[test]
    fn bounded_requests_sample_reproducibly_and_cache_under_their_own_key() {
        let (engine, _) = social_engine(150, 42);
        let accuracy = Accuracy::Bounded {
            epsilon: 0.2,
            delta: 0.1,
            seed: 9,
        };
        let a = engine.quantile_with("likes", 0.5, accuracy).unwrap();
        let b = engine.quantile_with("likes", 0.5, accuracy).unwrap();
        assert!(!a.from_cache);
        assert!(b.from_cache);
        assert_eq!(a.result.weight, b.result.weight);

        // A different seed misses the cache (distinct key) and may answer elsewhere.
        let other = engine
            .quantile_with(
                "likes",
                0.5,
                Accuracy::Bounded {
                    epsilon: 0.2,
                    delta: 0.1,
                    seed: 10,
                },
            )
            .unwrap();
        assert!(!other.from_cache);

        // The sampler ran on the encoded direct-access structure.
        let snapshot = engine.metrics_snapshot();
        let plan = [("plan", "likes")];
        assert_eq!(
            snapshot.counter("qjoin_solve_encoded_total", &plan),
            Some(2)
        );
    }

    #[test]
    fn bounded_requests_refuse_hopeless_regimes() {
        // 60 rows → few hundred answers, far below the default Hoeffding budget.
        let (engine, _) = social_engine(10, 3);
        let err = engine
            .quantile_with(
                "likes",
                0.5,
                Accuracy::Bounded {
                    epsilon: 0.05,
                    delta: 0.01,
                    seed: 1,
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Core(CoreError::ApproxRefused(_))
        ));
        assert!(err.to_string().contains("exact solve"), "{err}");

        // Invalid sampling parameters are rejected before any solve.
        assert!(matches!(
            engine
                .quantile_with(
                    "likes",
                    0.5,
                    Accuracy::Bounded {
                        epsilon: 0.2,
                        delta: 1.5,
                        seed: 1,
                    },
                )
                .unwrap_err(),
            EngineError::PlanCannotServe { .. }
        ));
    }

    #[test]
    fn plans_share_the_catalog_database_by_pointer() {
        let (engine, _) = social_engine(80, 5);
        engine
            .register(
                "maxlikes",
                "social",
                social_network_query(),
                Ranking::max(social_network_query().variables()),
            )
            .unwrap();
        let catalog_db = Arc::clone(&engine.catalog().get("social").unwrap().encoded);
        // Every view of every plan reads the catalog generation's own columns.
        let shares_columns_of = |plan: &PreparedPlan, db: &EncodedDatabase| {
            (plan.encoded().unwrap().relations())
                .all(|(name, view)| Arc::ptr_eq(view.base(), db.relation(name).unwrap()))
        };
        for plan in engine.plans() {
            assert!(
                shares_columns_of(&plan, &catalog_db),
                "plan {} must share the catalog database, not copy it",
                plan.name
            );
        }
        for stats in engine.plan_storage_stats() {
            assert_eq!(stats.owned_relations, 0, "plan {}", stats.plan);
            assert_eq!(stats.owned_bytes, 0);
            assert_eq!(stats.shared_relations, 3);
            assert!(stats.shared_bytes > 0);
        }

        // Replacement moves every dependent plan onto one new shared handle.
        let (_, new_db) = SocialConfig {
            rows_per_relation: 80,
            seed: 123,
            ..Default::default()
        }
        .generate()
        .into_parts();
        engine.replace_database("social", new_db).unwrap();
        let new_catalog_db = Arc::clone(&engine.catalog().get("social").unwrap().encoded);
        assert!(!Arc::ptr_eq(&catalog_db, &new_catalog_db));
        for plan in engine.plans() {
            assert!(shares_columns_of(&plan, &new_catalog_db));
            assert!(!shares_columns_of(&plan, &catalog_db));
        }
    }

    /// The engine keeps only the encoded generation: once `create_database` or
    /// `replace_database` returns, successful or refused, the caller's handle is the
    /// only one left on its tuples.
    #[test]
    fn the_engine_holds_no_handle_on_a_callers_database() {
        let social = |seed| {
            let config = SocialConfig {
                rows_per_relation: 60,
                seed,
                ..Default::default()
            };
            Arc::new(config.generate().into_parts().1)
        };
        let (a, b) = (social(1), social(2));
        let engine = Engine::new();
        engine.create_database("d", Arc::clone(&a)).unwrap();
        let likes = Ranking::sum(vars(&["l2", "l3"]));
        engine
            .register("likes", "d", social_network_query(), likes)
            .unwrap();
        engine.replace_database("d", Arc::clone(&b)).unwrap();
        // A wrong schema: the registered plan cannot recompile against it.
        let wrong = Arc::new(Database::new());
        assert!(engine.replace_database("d", Arc::clone(&wrong)).is_err());
        assert_eq!(engine.catalog().get("d").unwrap().generation, 2);
        for db in [&a, &b, &wrong] {
            assert_eq!(Arc::strong_count(db), 1);
        }
        assert!(engine.quantile("likes", 0.5).is_ok());
    }

    #[test]
    fn unknown_names_and_duplicates_error() {
        let (engine, _) = social_engine(60, 2);
        assert!(matches!(
            engine.quantile("nope", 0.5).unwrap_err(),
            EngineError::UnknownPlan(_)
        ));
        assert!(matches!(
            engine
                .register(
                    "likes",
                    "social",
                    social_network_query(),
                    Ranking::sum(vars(&["l2", "l3"]))
                )
                .unwrap_err(),
            EngineError::DuplicatePlan(_)
        ));
        assert!(matches!(
            engine
                .register("p2", "missing", path_query(2), Ranking::sum(vars(&["x1"])))
                .unwrap_err(),
            EngineError::UnknownDatabase(_)
        ));
        engine.drop_plan("likes").unwrap();
        assert!(matches!(
            engine.drop_plan("likes").unwrap_err(),
            EngineError::UnknownPlan(_)
        ));
    }

    #[test]
    fn metrics_snapshot_publishes_counters_and_solve_histograms() {
        let (engine, _) = social_engine(100, 13);
        engine.quantile("likes", 0.5).unwrap(); // cold: solves
        engine.quantile("likes", 0.5).unwrap(); // warm: cache hit
        let snapshot = engine.metrics_snapshot();

        // Published counters mirror the engine's atomics exactly.
        assert_eq!(
            snapshot.counter("qjoin_quantile_requests_total", &[]),
            Some(2)
        );
        assert_eq!(snapshot.counter("qjoin_solved_total", &[]), Some(1));
        assert_eq!(snapshot.counter("qjoin_cache_hits_total", &[]), Some(1));
        assert_eq!(
            snapshot.counter("qjoin_plan_compilations_total", &[]),
            Some(1)
        );
        assert_eq!(snapshot.gauge("qjoin_databases", &[]), Some(1.0));
        assert_eq!(snapshot.gauge("qjoin_plans", &[]), Some(1.0));
        assert_eq!(
            snapshot.gauge("qjoin_db_generation", &[("db", "social")]),
            Some(1.0)
        );
        assert!(snapshot.gauge("qjoin_uptime_seconds", &[]).unwrap() >= 0.0);
        // Shard occupancy gauges exist for every shard and sum to the entry count.
        let shards = engine.cache_shard_lens();
        assert_eq!(shards.len(), engine.stats().cache_shards);
        assert_eq!(shards.iter().sum::<usize>(), engine.stats().cache_entries);

        // Live solve telemetry: one whole-solve sample and nonzero phase spans.
        let plan = [("plan", "likes")];
        assert_eq!(
            snapshot
                .histogram("qjoin_solve_seconds", &plan)
                .unwrap()
                .count(),
            1
        );
        let prepare = snapshot
            .histogram(
                "qjoin_solve_phase_seconds",
                &[("plan", "likes"), ("phase", "prepare")],
            )
            .unwrap();
        assert_eq!(prepare.count(), 1);
        let rounds = snapshot.counter("qjoin_solve_rounds_total", &plan).unwrap();
        let trim_rounds = snapshot
            .histogram(
                "qjoin_solve_phase_seconds",
                &[("plan", "likes"), ("phase", "trim-round")],
            )
            .unwrap()
            .count();
        assert_eq!(
            rounds, trim_rounds,
            "round counter mirrors trim-round events"
        );
        // The encoded path served this social-network plan.
        assert_eq!(
            snapshot.counter("qjoin_solve_encoded_total", &plan),
            Some(1)
        );
        // Cache lookups were timed (one miss + one hit).
        assert_eq!(
            snapshot
                .histogram("qjoin_cache_lookup_seconds", &[])
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    fn shared_engine_serves_from_multiple_threads() {
        let (engine, _) = social_engine(80, 11);
        let engine = Arc::new(engine);
        let serial: Vec<_> = [0.2, 0.4, 0.6, 0.8]
            .iter()
            .map(|&phi| engine.quantile("likes", phi).unwrap().result.weight)
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let serial = serial.clone();
                std::thread::spawn(move || {
                    for (i, &phi) in [0.2, 0.4, 0.6, 0.8].iter().enumerate() {
                        let answer = engine.quantile("likes", phi).unwrap();
                        assert_eq!(answer.result.weight, serial[i]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
