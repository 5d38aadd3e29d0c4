//! The `qjoin` CLI: a REPL and one-shot subcommands over an [`Engine`].
//!
//! The REPL speaks a tiny command language (`help` prints it) against a long-lived
//! in-process engine; the one-shot subcommands (`register`, `quantile`, `batch`,
//! `stats`) synthesize the equivalent REPL script against a fresh engine, which makes
//! them convenient for smoke tests and CI. Databases are produced by the workspace's
//! workload generators (`social`, `path`, `star`, `starschema`, `random`), so a realistic catalog
//! can be spun up from a single command line.
//!
//! All command handling lives in [`CliSession`] so it is unit-testable and shareable:
//! the `qjoin` binary (in the `qjoin-server` crate, which adds the `serve` and
//! `client` subcommands) wraps [`main_with_args`], and the network server executes
//! the same command language against one shared session.

use crate::engine::Engine;
use crate::plan::{Accuracy, PreparedPlan};
use qjoin_query::{Instance, JoinQuery, Variable};
use qjoin_ranking::{AggregateKind, Ranking};
use qjoin_workload::path::PathConfig;
use qjoin_workload::random_acyclic::RandomAcyclicConfig;
use qjoin_workload::social::SocialConfig;
use qjoin_workload::star::StarConfig;
use qjoin_workload::star_schema::StarSchemaConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, IsTerminal, Write as _};
use std::sync::{Arc, RwLock};

/// Usage text shared by `help`, `--help`, and parse errors.
pub const HELP: &str = "\
qjoin — persistent quantile-query engine for joins (PODS 2023)

USAGE (one-shot):
  qjoin register <workload> [key=value ...] [ranking=<spec>]
  qjoin quantile <workload> <phi> [key=value ...] [ranking=<spec>] [eps=<ε>]
  qjoin batch    <workload> <phi> [<phi> ...] [key=value ...] [ranking=<spec>] [eps=<ε>]
  qjoin stats    <workload> [key=value ...]
  qjoin repl                read REPL commands from stdin

USAGE (network; provided by the qjoin-server crate's binary):
  qjoin serve  [addr=127.0.0.1:0] [workers=N] [queue=N] [cache=N]
  qjoin client <addr> [command ...]          one-shot or stdin-driven remote session

WORKLOADS (database generators; all keys optional):
  social   rows= seed= users= events= likes= skew=     (default ranking sum:l2,l3)
  path     atoms= rows= domain= weights= skew= seed=   (default ranking max:*)
  star     arms= rows= domain= weights= skew= seed=    (default ranking max:*)
  starschema  lineitems= orders= parts= weights= skew= seed=  (default ranking sum:wl)
  random   atoms= arity= rows= domain= seed=           (default ranking max:*)

RANKING SPECS:
  sum:l2,l3    max:*    min:x1,x3    lex:x2,x1        (* = all query variables)

REPL COMMANDS:
  open <db> <workload> [key=value ...]      generate + catalog a database
  replace <db> <workload> [key=value ...]   swap a database (invalidates caches)
  register <plan> <db> [ranking=<spec>]     compile a prepared plan
  quantile <plan> <phi> [eps=<ε>]           serve one quantile
                        [delta=<δ> seed=<s>]  (with eps=: randomized sampling route)
  batch <plan> <phi> [<phi> ...] [eps=<ε>]  serve many quantiles in one pass
  plans                                     list prepared plans
  stats                                     engine statistics + per-plan storage sharing
  stats json                                the same statistics as one JSON object
  metrics                                   Prometheus-style metric exposition lines
  trace last [n]                            the n most recent request span traces
  trace id <id>                             one retained trace as an indented span tree
  trace chrome <id|last>                    a trace as Chrome trace-event JSON (chrome://tracing)
  explain <plan> <phi>                      dichotomy class, join-tree shape, target rank
  explain analyze <plan> <phi>              explain + one traced uncached solve's observations
  help                                      this text
  quit | exit                               leave the REPL";

/// Metadata the CLI remembers per catalogued database: the query its workload joins
/// over and the workload's default ranking.
struct DbMeta {
    query: JoinQuery,
    default_ranking: Ranking,
}

/// An engine session executing the textual command language (the REPL's and the
/// network protocol's shared brain).
///
/// The session is **thread-safe**: [`CliSession::execute`] takes `&self`, the engine
/// is held behind an [`Arc`], and the per-database workload metadata sits behind its
/// own lock — `qjoin-server` shares one session across all of its worker threads.
pub struct CliSession {
    engine: Arc<Engine>,
    db_meta: RwLock<BTreeMap<String, DbMeta>>,
}

impl Default for CliSession {
    fn default() -> Self {
        CliSession::new()
    }
}

impl CliSession {
    /// A session with a fresh engine.
    pub fn new() -> Self {
        CliSession::with_engine(Arc::new(Engine::new()))
    }

    /// A session over a shared engine (used by the network server).
    pub fn with_engine(engine: Arc<Engine>) -> Self {
        CliSession {
            engine,
            db_meta: RwLock::new(BTreeMap::new()),
        }
    }

    /// The underlying shared engine (used by tests and embedding code).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Executes one REPL command line, returning its printable output.
    pub fn execute(&self, line: &str) -> Result<String, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&command, rest)) = tokens.split_first() else {
            return Ok(String::new());
        };
        match command {
            "help" => Ok(HELP.to_string()),
            "open" => self.cmd_open(rest, false),
            "replace" => self.cmd_open(rest, true),
            "register" => self.cmd_register(rest),
            "quantile" => self.cmd_quantile(rest),
            "batch" => self.cmd_batch(rest),
            "plans" => Ok(self.cmd_plans()),
            "stats" => match rest {
                [] => Ok(self.cmd_stats()),
                ["json"] => Ok(self.cmd_stats_json()),
                _ => Err("usage: stats [json]".to_string()),
            },
            "metrics" => Ok(self.cmd_metrics()),
            "trace" => self.cmd_trace(rest),
            "explain" => self.cmd_explain(rest),
            "quit" | "exit" => Err("__quit__".to_string()),
            other => Err(format!("unknown command {other:?}; try `help`")),
        }
    }

    fn cmd_open(&self, args: &[&str], replace: bool) -> Result<String, String> {
        let [name, workload, params @ ..] = args else {
            return Err("usage: open|replace <db> <workload> [key=value ...]".to_string());
        };
        let params = parse_params(params)?;
        let (instance, default_ranking) = generate_workload(workload, &params)?;
        let (query, database) = instance.into_parts();
        let tuples = database.total_tuples();
        let relations = database.num_relations();
        if replace {
            self.engine
                .replace_database(name, database)
                .map_err(|e| e.to_string())?;
        } else {
            self.engine
                .create_database(name, database)
                .map_err(|e| e.to_string())?;
        }
        let generation = self.engine.catalog().get(name).unwrap().generation;
        self.db_meta.write().unwrap().insert(
            name.to_string(),
            DbMeta {
                query,
                default_ranking,
            },
        );
        Ok(format!(
            "db {name}: {tuples} tuples across {relations} relations (workload {workload}, generation {generation})"
        ))
    }

    fn cmd_register(&self, args: &[&str]) -> Result<String, String> {
        let [plan, db, params @ ..] = args else {
            return Err("usage: register <plan> <db> [ranking=<spec>]".to_string());
        };
        let params = parse_params(params)?;
        ensure_known_keys(&params, &["ranking"])?;
        let (query, ranking) = {
            let db_meta = self.db_meta.read().unwrap();
            let meta = db_meta
                .get(*db)
                .ok_or_else(|| format!("no database named {db:?}; `open` one first"))?;
            let ranking = match params.get("ranking") {
                Some(spec) => parse_ranking(spec, &meta.query)?,
                None => meta.default_ranking.clone(),
            };
            (meta.query.clone(), ranking)
        };
        let plan = self
            .engine
            .register(plan, db, query, ranking)
            .map_err(|e| e.to_string())?;
        Ok(describe_plan(&plan))
    }

    fn cmd_quantile(&self, args: &[&str]) -> Result<String, String> {
        let [plan, phi, params @ ..] = args else {
            return Err(
                "usage: quantile <plan> <phi> [eps=<ε>] [delta=<δ>] [seed=<s>]".to_string(),
            );
        };
        let phi = parse_phi(phi)?;
        let params = parse_params(params)?;
        ensure_known_keys(&params, &["eps", "delta", "seed"])?;
        let accuracy = parse_accuracy(&params)?;
        let answer = self
            .engine
            .quantile_with(plan, phi, accuracy)
            .map_err(|e| e.to_string())?;
        Ok(describe_answer(&answer))
    }

    fn cmd_batch(&self, args: &[&str]) -> Result<String, String> {
        let [plan, rest @ ..] = args else {
            return Err(
                "usage: batch <plan> <phi> [<phi> ...] [eps=<ε>] [delta=<δ>] [seed=<s>]"
                    .to_string(),
            );
        };
        let (phi_tokens, param_tokens): (Vec<&str>, Vec<&str>) =
            rest.iter().partition(|t| !t.contains('='));
        if phi_tokens.is_empty() {
            return Err("batch needs at least one φ".to_string());
        }
        let phis: Vec<f64> = phi_tokens
            .iter()
            .map(|t| parse_phi(t))
            .collect::<Result<_, _>>()?;
        let params = parse_params(&param_tokens)?;
        ensure_known_keys(&params, &["eps", "delta", "seed"])?;
        let accuracy = parse_accuracy(&params)?;
        let answers = self
            .engine
            .quantile_batch_with(plan, &phis, accuracy)
            .map_err(|e| e.to_string())?;
        let mut out = String::new();
        for answer in &answers {
            writeln!(out, "{}", describe_answer(answer)).unwrap();
        }
        let solved = answers.iter().filter(|a| !a.from_cache).count();
        write!(
            out,
            "batch of {}: {} solved in one shared pass, {} from cache",
            answers.len(),
            solved,
            answers.len() - solved
        )
        .unwrap();
        Ok(out)
    }

    fn cmd_plans(&self) -> String {
        let mut lines: Vec<String> = self
            .engine
            .plans()
            .iter()
            .map(|p| describe_plan(p))
            .collect();
        if lines.is_empty() {
            lines.push("no plans registered".to_string());
        }
        lines.join("\n")
    }

    /// Engine counters followed by the storage report: code-column bytes per
    /// catalogued generation, and per plan the split between relations that read the
    /// catalog's columns (pointer-identical) and relations with columns of their own.
    /// Every current plan should report `owned=0`.
    fn cmd_stats(&self) -> String {
        // Sourced from the same registry snapshot as `stats json` / `metrics`,
        // so the human dump and the machine surfaces can never diverge.
        let metrics = self.engine.metrics_snapshot();
        let stats = self.engine.stats();
        let mut out = stats.to_string();
        let uptime = metrics.gauge("qjoin_uptime_seconds", &[]).unwrap_or(0.0);
        write!(out, "\nuptime:             {uptime:.1}s").unwrap();
        let occupancy: Vec<String> = (0..stats.cache_shards)
            .map(|shard| {
                let shard = shard.to_string();
                let entries = metrics
                    .gauge("qjoin_cache_shard_entries", &[("shard", &shard)])
                    .unwrap_or(0.0);
                format!("{}", entries as usize)
            })
            .collect();
        write!(
            out,
            "\ncache shards:       occupancy=[{}]",
            occupancy.join(", ")
        )
        .unwrap();
        let catalog = self.engine.catalog();
        for (name, entry) in catalog.iter() {
            let generation = metrics
                .gauge("qjoin_db_generation", &[("db", name)])
                .map_or(entry.generation, |g| g as u64);
            let encoded = &entry.encoded;
            let bytes = encoded.relations().map(|(_, c)| c.code_bytes()).sum();
            write!(
                out,
                "\ndb {name}: generation={generation} relations={} tuples={} resident≈{}",
                encoded.relations().count(),
                encoded.total_rows(),
                format_bytes(bytes),
            )
            .unwrap();
        }
        for s in self.engine.plan_storage_stats() {
            write!(
                out,
                "\nplan {}: db={} relations shared={} owned={} bytes shared≈{} owned≈{}",
                s.plan,
                s.database,
                s.shared_relations,
                s.owned_relations,
                format_bytes(s.shared_bytes),
                format_bytes(s.owned_bytes),
            )
            .unwrap();
        }
        out
    }

    fn cmd_stats_json(&self) -> String {
        qjoin_telemetry::render_json(&self.engine.metrics_snapshot())
    }

    fn cmd_metrics(&self) -> String {
        qjoin_telemetry::render_prometheus(&self.engine.metrics_snapshot())
            .trim_end()
            .to_string()
    }

    /// `trace last [n]` / `trace id <id>` / `trace chrome <id|last>`: reads
    /// recorded request traces back out of the engine's flight recorder.
    fn cmd_trace(&self, args: &[&str]) -> Result<String, String> {
        const USAGE: &str = "usage: trace last [n] | trace id <id> | trace chrome <id|last>";
        let recorder = self.engine.recorder();
        if !recorder.is_enabled() {
            return Err("span tracing is disabled (flight recorder capacity 0); \
                 restart with a non-zero tracecap"
                .to_string());
        }
        let last_trace = || {
            recorder
                .last(1)
                .into_iter()
                .next()
                .ok_or_else(|| "no traces recorded yet".to_string())
        };
        let by_id = |raw: &str| {
            let id = qjoin_telemetry::TraceId::parse(raw)
                .ok_or_else(|| format!("invalid trace id {raw:?} (expected hex)"))?;
            recorder
                .get(id)
                .ok_or_else(|| format!("trace {id} is not in the flight recorder (evicted?)"))
        };
        match args {
            [] | ["last"] => Ok(qjoin_telemetry::render_tree(last_trace()?.as_ref())),
            ["last", n] => {
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("invalid trace count {n:?}"))?;
                let traces = recorder.last(n.max(1));
                if traces.is_empty() {
                    return Err("no traces recorded yet".to_string());
                }
                Ok(traces
                    .iter()
                    .map(|t| qjoin_telemetry::render_tree(t))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            ["id", raw] => Ok(qjoin_telemetry::render_tree(by_id(raw)?.as_ref())),
            ["chrome", "last"] => Ok(qjoin_telemetry::chrome_trace_json(last_trace()?.as_ref())),
            ["chrome", raw] => Ok(qjoin_telemetry::chrome_trace_json(by_id(raw)?.as_ref())),
            _ => Err(USAGE.to_string()),
        }
    }

    /// `explain [analyze] <plan> <phi>`: the §5 dichotomy class and plan shape,
    /// plus (with `analyze`) one traced uncached solve's observed rounds.
    fn cmd_explain(&self, args: &[&str]) -> Result<String, String> {
        const USAGE: &str = "usage: explain [analyze] <plan> <phi>";
        let (analyze, rest) = match args {
            ["analyze", rest @ ..] => (true, rest),
            rest => (false, rest),
        };
        let [plan, phi] = rest else {
            return Err(USAGE.to_string());
        };
        let phi = parse_phi(phi)?;
        let report = self
            .engine
            .explain(plan, phi, analyze)
            .map_err(|e| e.to_string())?;
        Ok(report.render().trim_end().to_string())
    }
}

/// Formats a byte count with a binary unit suffix.
fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

fn describe_plan(plan: &PreparedPlan) -> String {
    format!(
        "plan {}: db={} gen={} strategy={} answers={} ranking={} compile={:.2}ms",
        plan.name,
        plan.database,
        plan.generation,
        plan.strategy.label(),
        plan.total_answers,
        plan.ranking,
        plan.compile_time.as_secs_f64() * 1_000.0
    )
}

fn describe_answer(answer: &crate::engine::EngineAnswer) -> String {
    let accuracy = match answer.accuracy {
        Accuracy::Exact => String::new(),
        Accuracy::Approximate { epsilon } => format!(" eps={epsilon}"),
        Accuracy::Bounded {
            epsilon,
            delta,
            seed,
        } => format!(" eps={epsilon} delta={delta} seed={seed}"),
    };
    format!(
        "phi={:.4}{}: weight={} rank={}/{} iterations={}{}",
        answer.phi,
        accuracy,
        answer.result.weight,
        answer.result.target_index,
        answer.result.total_answers,
        answer.result.iterations,
        if answer.from_cache { " (cached)" } else { "" }
    )
}

/// Parses `key=value` tokens; rejects anything else.
fn parse_params(tokens: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut params = BTreeMap::new();
    for token in tokens {
        let Some((key, value)) = token.split_once('=') else {
            return Err(format!("expected key=value, got {token:?}"));
        };
        params.insert(key.to_string(), value.to_string());
    }
    Ok(params)
}

/// Rejects parameters outside the allowed set, so typos (`row=` for `rows=`) fail
/// loudly instead of silently running on defaults.
fn ensure_known_keys(params: &BTreeMap<String, String>, allowed: &[&str]) -> Result<(), String> {
    for key in params.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown parameter {key:?}; expected one of: {}",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn param<T: std::str::FromStr>(
    params: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match params.get(key) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value {raw:?} for {key}")),
        None => Ok(default),
    }
}

fn parse_phi(token: &str) -> Result<f64, String> {
    let phi: f64 = token.parse().map_err(|_| format!("invalid φ {token:?}"))?;
    if !(0.0..=1.0).contains(&phi) {
        return Err(format!("φ must be in [0, 1], got {phi}"));
    }
    Ok(phi)
}

/// `eps=` alone selects the deterministic ε-approximation; adding `delta=` and/or
/// `seed=` switches to the randomized sampler (Hoeffding bound, reproducible by
/// seed), defaulting δ = 0.01 and seed = 0x5eed.
fn parse_accuracy(params: &BTreeMap<String, String>) -> Result<Accuracy, String> {
    let epsilon = params
        .get("eps")
        .map(|raw| {
            raw.parse::<f64>()
                .map_err(|_| format!("invalid eps {raw:?}"))
        })
        .transpose()?;
    let delta = params
        .get("delta")
        .map(|raw| {
            raw.parse::<f64>()
                .map_err(|_| format!("invalid delta {raw:?}"))
        })
        .transpose()?;
    let seed = params
        .get("seed")
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|_| format!("invalid seed {raw:?}"))
        })
        .transpose()?;
    match (epsilon, delta.is_some() || seed.is_some()) {
        (None, false) => Ok(Accuracy::Exact),
        (None, true) => {
            Err("delta=/seed= request randomized sampling and need eps= too".to_string())
        }
        (Some(epsilon), false) => Ok(Accuracy::Approximate { epsilon }),
        (Some(epsilon), true) => Ok(Accuracy::Bounded {
            epsilon,
            delta: delta.unwrap_or(0.01),
            seed: seed.unwrap_or(0x5eed),
        }),
    }
}

/// Parses a ranking spec `kind:vars` (vars a comma list, or `*` for all query
/// variables) against the query it will rank.
fn parse_ranking(spec: &str, query: &JoinQuery) -> Result<Ranking, String> {
    let (kind_str, vars_str) = spec
        .split_once(':')
        .ok_or_else(|| format!("ranking spec {spec:?} must look like kind:v1,v2 or kind:*"))?;
    let vars: Vec<Variable> = if vars_str == "*" {
        query.variables()
    } else {
        vars_str
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|name| {
                let var = Variable::new(name);
                if query.contains_variable(&var) {
                    Ok(var)
                } else {
                    Err(format!("variable {name:?} does not occur in the query"))
                }
            })
            .collect::<Result<_, _>>()?
    };
    if vars.is_empty() {
        return Err("ranking needs at least one variable".to_string());
    }
    let kind = match kind_str {
        "sum" => AggregateKind::Sum,
        "min" => AggregateKind::Min,
        "max" => AggregateKind::Max,
        "lex" => AggregateKind::Lex,
        other => return Err(format!("unknown ranking kind {other:?}")),
    };
    Ok(Ranking::new(kind, vars))
}

/// A generator size the generators assert is at least 1.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    params: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    let value = param(params, key, default)?;
    if value < T::from(1) {
        return Err(format!("{key} must be at least 1"));
    }
    Ok(value)
}

/// A Zipf skew: any number but NaN, which leaves the sampler an empty range.
fn skew(params: &BTreeMap<String, String>, default: f64) -> Result<f64, String> {
    let skew = param(params, "skew", default)?;
    if skew.is_nan() {
        return Err("skew must be a number, got NaN".to_string());
    }
    Ok(skew)
}

/// Generates a workload instance plus its default ranking. Every parameter a
/// generator would panic on is refused here, so a bad `open` is an error reply.
fn generate_workload(
    kind: &str,
    params: &BTreeMap<String, String>,
) -> Result<(Instance, Ranking), String> {
    match kind {
        "social" => {
            ensure_known_keys(
                params,
                &["rows", "seed", "users", "events", "likes", "skew"],
            )?;
            let rows = param(params, "rows", 200usize)?;
            let config = SocialConfig {
                users: positive(params, "users", rows.max(1))?,
                events: positive(params, "events", (rows / 10).max(1))?,
                rows_per_relation: rows,
                max_likes: param(params, "likes", 1_000i64)?,
                event_skew: skew(params, 0.8)?,
                seed: param(params, "seed", 7u64)?,
            };
            let ranking = config.likes_ranking();
            Ok((config.generate(), ranking))
        }
        "path" => {
            ensure_known_keys(
                params,
                &["atoms", "rows", "domain", "weights", "skew", "seed"],
            )?;
            let rows = param(params, "rows", 100usize)?;
            let config = PathConfig {
                atoms: positive(params, "atoms", 3usize)?,
                tuples_per_relation: rows,
                join_domain: positive(params, "domain", (rows / 10).max(2))?,
                weight_range: param(params, "weights", 1_000_000i64)?,
                skew: skew(params, 0.2)?,
                seed: param(params, "seed", 7u64)?,
            };
            let instance = config.generate();
            let ranking = Ranking::max(instance.query().variables());
            Ok((instance, ranking))
        }
        "star" => {
            ensure_known_keys(
                params,
                &["arms", "rows", "domain", "weights", "skew", "seed"],
            )?;
            let rows = param(params, "rows", 100usize)?;
            let config = StarConfig {
                arms: positive(params, "arms", 3usize)?,
                tuples_per_relation: rows,
                center_domain: positive(params, "domain", (rows / 10).max(2))?,
                weight_range: param(params, "weights", 1_000_000i64)?,
                skew: skew(params, 0.2)?,
                seed: param(params, "seed", 7u64)?,
            };
            let instance = config.generate();
            let ranking = Ranking::max(instance.query().variables());
            Ok((instance, ranking))
        }
        "starschema" => {
            ensure_known_keys(
                params,
                &["lineitems", "orders", "parts", "weights", "skew", "seed"],
            )?;
            let lineitems = positive(params, "lineitems", 10_000usize)?;
            let mut config = StarSchemaConfig::with_scale(lineitems);
            config.orders = positive(params, "orders", config.orders)?;
            config.parts = positive(params, "parts", config.parts)?;
            config.weight_range = param(params, "weights", config.weight_range)?;
            config.skew = skew(params, config.skew)?;
            config.seed = param(params, "seed", config.seed)?;
            let ranking = config.revenue_ranking();
            Ok((config.generate(), ranking))
        }
        "random" => {
            ensure_known_keys(params, &["atoms", "arity", "rows", "domain", "seed"])?;
            let config = RandomAcyclicConfig {
                atoms: positive(params, "atoms", 3usize)?,
                max_arity: positive(params, "arity", 3usize)?,
                tuples_per_relation: param(params, "rows", 20usize)?,
                domain: positive(params, "domain", 6i64)?,
                seed: param(params, "seed", 7u64)?,
            };
            let instance = config.generate();
            let ranking = Ranking::max(instance.query().variables());
            Ok((instance, ranking))
        }
        other => Err(format!(
            "unknown workload {other:?} (expected social, path, star, starschema, or random)"
        )),
    }
}

/// Runs a one-shot subcommand by synthesizing the equivalent REPL script against a
/// fresh session. Returns the lines to print.
pub fn run_one_shot(args: &[String]) -> Result<String, String> {
    let [subcommand, workload, rest @ ..] = args else {
        return Err(format!("missing arguments\n\n{HELP}"));
    };
    let (bare, keyed): (Vec<&str>, Vec<&str>) = rest
        .iter()
        .map(String::as_str)
        .partition(|t| !t.contains('='));
    // `ranking=` goes to register, `eps=` to the query, the rest to the workload.
    let mut open_params = Vec::new();
    let mut register_params = Vec::new();
    let mut query_params = Vec::new();
    for token in keyed {
        if token.starts_with("ranking=") {
            register_params.push(token);
        } else if token.starts_with("eps=") {
            query_params.push(token);
        } else {
            open_params.push(token);
        }
    }

    let session = CliSession::new();
    let mut out = String::new();
    let mut run = |session: &CliSession, command: String| -> Result<(), String> {
        let output = session.execute(&command)?;
        if !output.is_empty() {
            writeln!(out, "{output}").unwrap();
        }
        Ok(())
    };
    run(
        &session,
        format!("open db {workload} {}", open_params.join(" ")),
    )?;
    run(
        &session,
        format!("register plan db {}", register_params.join(" ")),
    )?;
    match subcommand.as_str() {
        "register" => {}
        "quantile" | "batch" => {
            if bare.is_empty() {
                return Err(format!("{subcommand} needs at least one φ\n\n{HELP}"));
            }
            run(
                &session,
                format!("batch plan {} {}", bare.join(" "), query_params.join(" ")),
            )?;
        }
        "stats" => {}
        other => return Err(format!("unknown subcommand {other:?}\n\n{HELP}")),
    }
    if *subcommand == "stats" {
        run(&session, "stats".to_string())?;
    }
    Ok(out.trim_end().to_string())
}

/// The REPL: reads commands from stdin, printing a prompt when interactive.
pub fn run_repl() -> i32 {
    let interactive = std::io::stdin().is_terminal();
    let session = CliSession::new();
    let stdin = std::io::stdin();
    if interactive {
        println!("qjoin — type `help` for commands, `quit` to leave");
    }
    loop {
        if interactive {
            print!("qjoin> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => return 0,
            Ok(_) => {}
        }
        match session.execute(&line) {
            Ok(output) if output.is_empty() => {}
            Ok(output) => println!("{output}"),
            Err(e) if e == "__quit__" => return 0,
            Err(e) => {
                eprintln!("error: {e}");
                if !interactive {
                    return 1;
                }
            }
        }
    }
}

/// Entry point shared with the binary: dispatches on the first argument.
pub fn main_with_args(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        None | Some("repl") => run_repl(),
        Some("help") | Some("-h") | Some("--help") => {
            println!("{HELP}");
            0
        }
        Some(_) => match run_one_shot(args) {
            Ok(output) => {
                if !output.is_empty() {
                    println!("{output}");
                }
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(session: &CliSession, command: &str) -> String {
        session
            .execute(command)
            .unwrap_or_else(|e| panic!("command {command:?} failed: {e}"))
    }

    #[test]
    fn open_register_quantile_batch_stats_flow() {
        let session = CliSession::new();
        let opened = ok(&session, "open s social rows=120 seed=3");
        assert!(opened.contains("360 tuples"));
        let registered = ok(&session, "register likes s");
        assert!(
            registered.contains("strategy=sum-adjacent-pair"),
            "{registered}"
        );
        let answer = ok(&session, "quantile likes 0.5");
        assert!(answer.contains("phi=0.5000"), "{answer}");
        let batch = ok(&session, "batch likes 0.1 0.5 0.9");
        assert!(batch.contains("1 from cache"), "{batch}");
        let stats = ok(&session, "stats");
        assert!(stats.contains("plans:              1"), "{stats}");
        // The storage report shows the plan sharing every relation with the catalog.
        assert!(stats.contains("db s: generation=1 relations=3"), "{stats}");
        assert!(
            stats.contains("plan likes: db=s relations shared=3 owned=0"),
            "{stats}"
        );
        assert!(stats.contains("owned≈0 B"), "{stats}");
        // Registry-sourced lines: uptime and per-shard cache occupancy.
        assert!(stats.contains("uptime:             "), "{stats}");
        assert!(stats.contains("cache shards:       occupancy=["), "{stats}");
        // A replacement moves the plan onto the new generation's code columns:
        // 120 rows of every relation, 8 columns in all, 8 bytes a code.
        ok(&session, "replace s social rows=120 seed=4");
        let stats = ok(&session, "stats");
        let db = "db s: generation=2 relations=3 tuples=360 resident≈7.5 KiB";
        assert!(stats.contains(db), "{stats}");
        assert!(
            stats.contains("plan likes: db=s relations shared=3 owned=0"),
            "{stats}"
        );
    }

    #[test]
    fn metrics_and_stats_json_expose_the_registry() {
        let session = CliSession::new();
        ok(&session, "open s social rows=120 seed=3");
        ok(&session, "register likes s");
        ok(&session, "quantile likes 0.5");
        ok(&session, "quantile likes 0.5"); // warm: cache hit

        let metrics = ok(&session, "metrics");
        assert!(
            metrics.contains("# TYPE qjoin_solve_seconds histogram"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qjoin_solve_seconds_count{plan=\"likes\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qjoin_quantile_requests_total 2"),
            "{metrics}"
        );
        assert!(metrics.contains("qjoin_cache_hits_total 1"), "{metrics}");
        assert!(
            metrics.contains("qjoin_db_generation{db=\"s\"} 1.0"),
            "{metrics}"
        );
        assert!(
            !metrics.ends_with('\n'),
            "trailing newline would add an empty payload line"
        );

        let json = ok(&session, "stats json");
        assert!(!json.contains('\n'), "stats json must be one line: {json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(
            json.contains("\"qjoin_quantile_requests_total\":2"),
            "{json}"
        );
        assert!(
            json.contains("\"qjoin_solve_seconds{plan=\\\"likes\\\"}\":{\"count\":1"),
            "{json}"
        );

        // `stats` with any other argument is a usage error.
        assert!(session.execute("stats nonsense").is_err());
    }

    #[test]
    fn replace_swaps_the_database_and_invalidates() {
        let session = CliSession::new();
        ok(&session, "open s social rows=80 seed=1");
        ok(&session, "register likes s");
        let before = ok(&session, "quantile likes 0.5");
        ok(&session, "replace s social rows=80 seed=99");
        let after = ok(&session, "quantile likes 0.5");
        assert!(!after.contains("(cached)"), "{after}");
        assert_ne!(before, after);
    }

    #[test]
    fn explicit_rankings_and_other_workloads() {
        let session = CliSession::new();
        ok(&session, "open p path atoms=3 rows=60 seed=2");
        let max_plan = ok(&session, "register m p ranking=max:*");
        assert!(max_plan.contains("strategy=minmax"), "{max_plan}");
        let lex_plan = ok(&session, "register l p ranking=lex:x2,x1");
        assert!(lex_plan.contains("strategy=lex"), "{lex_plan}");
        ok(&session, "quantile m 0.25");
        ok(&session, "quantile l 0.75");
        let plans = ok(&session, "plans");
        assert!(
            plans.contains("plan l:") && plans.contains("plan m:"),
            "{plans}"
        );
    }

    #[test]
    fn intractable_sum_falls_back_to_eps() {
        let session = CliSession::new();
        ok(&session, "open p path atoms=3 rows=40 seed=4");
        let plan = ok(&session, "register fullsum p ranking=sum:*");
        assert!(plan.contains("sum-approximate-only"), "{plan}");
        let err = session.execute("quantile fullsum 0.5").unwrap_err();
        assert!(err.contains("cannot serve"), "{err}");
        let approx = ok(&session, "quantile fullsum 0.5 eps=0.1");
        assert!(approx.contains("eps=0.1"), "{approx}");
    }

    #[test]
    fn sampling_route_answers_and_refuses_via_the_command_language() {
        let session = CliSession::new();
        ok(&session, "open s social rows=150 seed=42");
        ok(&session, "register likes s");
        // eps+delta/seed select the randomized sampler; the answer echoes the params.
        let sampled = ok(&session, "quantile likes 0.5 eps=0.2 delta=0.1 seed=9");
        assert!(sampled.contains("eps=0.2 delta=0.1 seed=9"), "{sampled}");
        let again = ok(&session, "quantile likes 0.5 eps=0.2 delta=0.1 seed=9");
        assert!(again.contains("(cached)"), "{again}");
        // Hopeless regime: the Hoeffding budget dwarfs the answer count, so the
        // request is refused with the witness on one clean error line.
        ok(&session, "open tiny social rows=10 seed=3");
        ok(&session, "register tinyplan tiny");
        let err = session
            .execute("quantile tinyplan 0.5 eps=0.05 delta=0.01 seed=1")
            .unwrap_err();
        assert!(err.contains("approximate solve refused"), "{err}");
        assert!(!err.contains('\n'), "wire errors must be one line: {err}");
        // delta/seed without eps is a parse error, not a silent exact solve.
        assert!(session.execute("quantile likes 0.5 delta=0.1").is_err());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let session = CliSession::new();
        assert!(session.execute("open").is_err());
        assert!(session.execute("open s nosuch").is_err());
        assert!(session.execute("quantile nope 0.5").is_err());
        assert!(session.execute("bogus").is_err());
        assert!(session.execute("quantile nope 1.5").is_err());
        ok(&session, "open s social rows=40");
        assert!(session.execute("register p s ranking=sum:zz").is_err());
        assert!(session.execute("register p s ranking=weird:*").is_err());
        // Typoed parameter keys fail loudly instead of running on defaults.
        assert!(session.execute("open t social row=500").is_err());
        assert!(session.execute("register p s rankin=max:*").is_err());
        ok(&session, "register p s");
        assert!(session.execute("quantile p 0.5 esp=0.1").is_err());
        assert!(session.execute("batch p 0.5 esp=0.1").is_err());
    }

    #[test]
    fn trace_verbs_replay_recorded_requests() {
        let session = CliSession::new();
        ok(&session, "open s social rows=120 seed=3");
        ok(&session, "register likes s");
        ok(&session, "quantile likes 0.5");

        // The cold solve recorded a full request trace: lifecycle spans plus
        // one per solve phase, each carrying its structured arguments.
        let tree = ok(&session, "trace last 1");
        for needle in [
            "request",
            "cache-lookup",
            "solve",
            "prepare",
            "pivot-scan",
            "trim-round",
            "materialize",
            "round=",
            "candidates=",
        ] {
            assert!(tree.contains(needle), "missing {needle:?} in:\n{tree}");
        }

        // `trace id` replays the same trace by its hex id.
        let id = tree
            .split_whitespace()
            .nth(1)
            .expect("render_tree leads with `trace <id>`");
        let by_id = ok(&session, &format!("trace id {id}"));
        assert_eq!(tree, by_id);

        // The chrome export is one line of trace-event JSON with complete events.
        let chrome = ok(&session, &format!("trace chrome {id}"));
        assert!(!chrome.contains('\n'), "{chrome}");
        assert!(chrome.starts_with('[') && chrome.ends_with(']'), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"trim-round\""), "{chrome}");
        assert_eq!(ok(&session, "trace chrome last"), chrome);

        // A warm repeat records a new (cache-hit) trace, newest first.
        ok(&session, "quantile likes 0.5");
        let warm = ok(&session, "trace last 1");
        assert!(warm.contains("hit=true"), "{warm}");
        assert!(!warm.contains("solve"), "{warm}");

        // Errors are reported, not panicked.
        assert!(session.execute("trace id zzz").is_err());
        assert!(session.execute("trace id ffffffff").is_err());
        assert!(session.execute("trace bogus").is_err());
    }

    #[test]
    fn trace_reports_disabled_recorder() {
        let session =
            CliSession::with_engine(Arc::new(Engine::with_config(crate::engine::EngineConfig {
                flight_recorder_capacity: 0,
                ..Default::default()
            })));
        ok(&session, "open s social rows=40 seed=1");
        ok(&session, "register likes s");
        ok(&session, "quantile likes 0.5");
        let err = session.execute("trace last").unwrap_err();
        assert!(err.contains("disabled"), "{err}");
    }

    #[test]
    fn explain_names_the_dichotomy_class() {
        let session = CliSession::new();
        ok(&session, "open s social rows=120 seed=3");
        ok(&session, "register likes s");
        let report = ok(&session, "explain likes 0.5");
        assert!(
            report.contains("dichotomy class: sum-adjacent-pair"),
            "{report}"
        );
        assert!(report.contains("Theorem 5.6"), "{report}");
        assert!(report.contains("join tree: 3 atoms"), "{report}");
        assert!(report.contains("targets rank"), "{report}");

        // analyze runs one real solve and reports its observed rounds.
        let analyzed = ok(&session, "explain analyze likes 0.5");
        assert!(analyzed.contains("analyze: solved in"), "{analyzed}");
        assert!(analyzed.contains("round 0:"), "{analyzed}");
        assert!(analyzed.contains("n_lt="), "{analyzed}");
        assert!(analyzed.contains("of them keyed"), "{analyzed}");

        // The intractable class explains itself and analyzes approximately.
        ok(&session, "open p path atoms=3 rows=40 seed=4");
        ok(&session, "register fullsum p ranking=sum:*");
        let hard = ok(&session, "explain analyze fullsum 0.5");
        assert!(hard.contains("sum-approximate-only"), "{hard}");
        assert!(hard.contains("NP-hard"), "{hard}");
        assert!(hard.contains("approximate eps=0.05"), "{hard}");

        assert!(session.execute("explain").is_err());
        assert!(session.execute("explain nope 0.5").is_err());
        assert!(session.execute("explain likes 1.5").is_err());
    }

    #[test]
    fn bytes_format_uses_binary_units() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn one_shot_register_and_batch() {
        let register = run_one_shot(&[
            "register".to_string(),
            "social".to_string(),
            "rows=80".to_string(),
            "seed=3".to_string(),
        ])
        .unwrap();
        assert!(register.contains("plan plan:"), "{register}");
        let batch = run_one_shot(&[
            "batch".to_string(),
            "social".to_string(),
            "0.1".to_string(),
            "0.5".to_string(),
            "0.9".to_string(),
            "rows=80".to_string(),
        ])
        .unwrap();
        assert!(batch.contains("solved in one shared pass"), "{batch}");
        let stats = run_one_shot(&[
            "stats".to_string(),
            "social".to_string(),
            "rows=40".to_string(),
        ])
        .unwrap();
        assert!(stats.contains("plans:              1"), "{stats}");
        assert!(run_one_shot(&["quantile".to_string(), "social".to_string()]).is_err());
        assert!(run_one_shot(&["bogus".to_string(), "social".to_string()]).is_err());
    }
}
