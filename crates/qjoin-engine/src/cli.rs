//! The `qjoin` CLI: a REPL and one-shot subcommands over an [`Engine`].
//!
//! The REPL reads the command language of [`Request::parse`] (`help` prints it)
//! against a long-lived in-process engine; the one-shot subcommands (`register`,
//! `quantile`, `batch`, `stats`) run the equivalent requests against a fresh
//! engine, which makes them convenient for smoke tests and CI. Databases come from
//! the workspace's workload generators, so a realistic catalog can be spun up
//! from a single command line.
//!
//! [`CliSession`] runs every request, so it is unit-testable and shareable: the
//! `qjoin` binary (in the `qjoin-server` crate, which adds the `serve` and
//! `client` subcommands) wraps [`main_with_args`], and the network server runs
//! the same requests against one shared session.

use crate::engine::Engine;
use crate::plan::PreparedPlan;
use crate::request::{parse_accuracy, parse_phis, parse_ranking, Workload};
use crate::request::{ErrorClass, RankingSpec, Request, RequestError, TraceQuery};
use qjoin_core::Accuracy;
use qjoin_query::{Instance, JoinQuery, Variable};
use qjoin_ranking::Ranking;
use qjoin_telemetry::render_json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, IsTerminal, Write as _};
use std::sync::{Arc, PoisonError, RwLock};

/// What running a request gives: its printable output, or its typed error.
pub type Reply = Result<String, RequestError>;

/// Usage text shared by `help`, `--help`, and parse errors.
pub const HELP: &str = "\
qjoin — persistent quantile-query engine for joins (PODS 2023)

USAGE (one-shot):
  qjoin register <workload> [key=value ...] [ranking=<spec>]
  qjoin quantile <workload> <phi> [key=value ...] [ranking=<spec>] [eps=<ε>]
  qjoin batch    <workload> <phi> [<phi> ...] [key=value ...] [ranking=<spec>] [eps=<ε>]
  qjoin stats    <workload> [key=value ...]
  qjoin repl                read REPL commands from stdin

WORKLOADS (database generators; all keys optional):
  social   rows= seed= users= events= likes= skew=     (default ranking sum:l2,l3)
  path     atoms= rows= domain= weights= skew= seed=   (default ranking max:*)
  star     arms= rows= domain= weights= skew= seed=    (default ranking max:*)
  starschema  lineitems= orders= parts= weights= skew= seed=  (default ranking sum:wl)
  random   atoms= arity= rows= domain= seed=           (default ranking max:*)

RANKING SPECS:
  sum:l2,l3    max:*    min:x1,x3    lex:x2,x1        (* = all query variables)

COMMANDS (the REPL's, and the wire's under `qjoin serve` / `qjoin client`):
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
  slowlog                                   the server's slow-query log (wire only)
  ping                                      answers pong
  help                                      this text
  quit | exit                               leave the REPL (the wire: close the connection)
  shutdown                                  leave the REPL (the wire: stop the server)";

/// An engine session running parsed [`Request`]s (the REPL's and the network
/// protocol's shared brain).
///
/// The session is **thread-safe**: [`CliSession::run`] takes `&self`, the engine
/// is held behind an [`Arc`], and the per-database workload metadata sits behind its
/// own lock — `qjoin-server` shares one session across all of its worker threads.
pub struct CliSession {
    engine: Arc<Engine>,
    /// Per catalogued database: the query its workload joins over and the
    /// workload's default ranking.
    db_meta: RwLock<BTreeMap<String, (JoinQuery, Ranking)>>,
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

    /// Runs one request, returning its printable output. The connection verbs
    /// answer with their wire replies; ending a connection or a server is the
    /// caller's business, and the slow-query log is the server's.
    pub fn run(&self, request: &Request) -> Result<String, RequestError> {
        match request {
            Request::Empty => Ok(String::new()),
            Request::Help => Ok(HELP.to_string()),
            Request::Ping => Ok("pong".to_string()),
            Request::Quit => Ok("bye".to_string()),
            Request::Shutdown => Ok("shutting down".to_string()),
            Request::SlowLog => Err(RequestError::new(
                ErrorClass::Refused,
                "the slow-query log is kept by `qjoin serve`, not by this session",
            )),
            Request::Open(db, workload) => self.cmd_open(db, workload, false),
            Request::Replace(db, workload) => self.cmd_open(db, workload, true),
            Request::Register(plan, db, ranking) => self.cmd_register(plan, db, ranking),
            Request::Quantile(plan, phi, accuracy) => {
                let answer = self.engine.quantile_with(plan, *phi, *accuracy)?;
                Ok(describe_answer(&answer))
            }
            Request::Batch(plan, phis, accuracy) => {
                let answers = self.engine.quantile_batch_with(plan, phis, *accuracy)?;
                Ok(describe_batch(&answers))
            }
            Request::Plans => Ok(self.cmd_plans()),
            Request::Stats => Ok(self.cmd_stats()),
            Request::StatsJson => Ok(render_json(&self.engine.metrics_snapshot())),
            Request::Metrics => Ok(self.cmd_metrics()),
            Request::Trace(query) => self.cmd_trace(*query),
            Request::Explain(plan, phi) | Request::ExplainAnalyze(plan, phi) => {
                let analyze = matches!(request, Request::ExplainAnalyze(..));
                let report = self.engine.explain(plan, *phi, analyze)?;
                Ok(report.render().trim_end().to_string())
            }
        }
    }

    /// Runs a `quantile` or `batch` the cache answers whole
    /// ([`Engine::serve_cached`]), byte for byte as [`CliSession::run`] would;
    /// `None` for any other request.
    pub fn run_cached(&self, request: &Request) -> Option<Reply> {
        let answers = self.engine.serve_cached(request)?;
        Some(Ok(match request {
            Request::Batch(..) => describe_batch(&answers),
            _ => describe_answer(&answers[0]),
        }))
    }

    fn cmd_open(&self, db: &str, workload: &Workload, replace: bool) -> Reply {
        let (instance, ranking) = generate(workload);
        let (query, database) = instance.into_parts();
        let (tuples, relations) = (database.total_tuples(), database.num_relations());
        match replace {
            true => self.engine.replace_database(db, database)?,
            false => self.engine.create_database(db, database)?,
        }
        let generation = self.engine.catalog().get(db).unwrap().generation;
        let mut db_meta = self.db_meta.write().unwrap_or_else(PoisonError::into_inner);
        db_meta.insert(db.to_string(), (query, ranking));
        let workload = workload.name();
        Ok(format!(
            "db {db}: {tuples} tuples across {relations} relations (workload {workload}, generation {generation})"
        ))
    }

    fn cmd_register(&self, plan: &str, db: &str, ranking: &Option<RankingSpec>) -> Reply {
        let (query, ranking) = {
            let db_meta = self.db_meta.read().unwrap_or_else(PoisonError::into_inner);
            let Some((query, default)) = db_meta.get(db) else {
                let message = format!("no database named {db:?}; `open` one first");
                return Err(RequestError::new(ErrorClass::Unknown, message));
            };
            let ranking = match ranking {
                Some(spec) => resolve_ranking(spec, query)?,
                None => default.clone(),
            };
            (query.clone(), ranking)
        };
        let plan = self.engine.register(plan, db, query, ranking)?;
        Ok(describe_plan(&plan))
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

    fn cmd_metrics(&self) -> String {
        qjoin_telemetry::render_prometheus(&self.engine.metrics_snapshot())
            .trim_end()
            .to_string()
    }

    /// `trace …`: reads recorded request traces back out of the engine's
    /// flight recorder.
    fn cmd_trace(&self, query: TraceQuery) -> Reply {
        let recorder = self.engine.recorder();
        if !recorder.is_enabled() {
            return Err(RequestError::new(
                ErrorClass::Refused,
                "span tracing is disabled (flight recorder capacity 0); \
                 restart with a non-zero tracecap",
            ));
        }
        let traces = match query.id {
            None => recorder.last(query.count),
            Some(id) => recorder.get(id).into_iter().collect(),
        };
        if traces.is_empty() {
            let message = match query.id {
                None => "no traces recorded yet".to_string(),
                Some(id) => format!("trace {id} is not in the flight recorder (evicted?)"),
            };
            return Err(RequestError::new(ErrorClass::Unknown, message));
        }
        let render = match query.chrome {
            true => qjoin_telemetry::chrome_trace_json,
            false => qjoin_telemetry::render_tree,
        };
        let rendered: Vec<String> = traces.iter().map(|t| render(t)).collect();
        Ok(rendered.join("\n"))
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
        plan.plan.strategy().label(),
        plan.plan.total_answers(),
        plan.plan.ranking(),
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

/// A batch's answers, one line each, then how many were solved and cached.
fn describe_batch(answers: &[crate::engine::EngineAnswer]) -> String {
    let solved = answers.iter().filter(|a| !a.from_cache).count();
    let (n, cached) = (answers.len(), answers.len() - solved);
    let mut lines: Vec<String> = answers.iter().map(describe_answer).collect();
    lines.push(format!(
        "batch of {n}: {solved} solved in one shared pass, {cached} from cache"
    ));
    lines.join("\n")
}

/// Resolves a ranking spec against the query it will rank.
fn resolve_ranking(spec: &RankingSpec, query: &JoinQuery) -> Result<Ranking, RequestError> {
    let Some(names) = &spec.vars else {
        return Ok(Ranking::new(spec.kind, query.variables()));
    };
    let absent = |name: &&String| !query.contains_variable(&Variable::new(name));
    if let Some(name) = names.iter().find(absent) {
        let message = format!("variable {name:?} does not occur in the query");
        return Err(RequestError::usage(message));
    }
    Ok(Ranking::new(
        spec.kind,
        names.iter().map(Variable::new).collect(),
    ))
}

/// Generates a workload instance plus its default ranking.
fn generate(workload: &Workload) -> (Instance, Ranking) {
    let (instance, ranking) = match workload {
        Workload::Social(config) => (config.generate(), Some(config.likes_ranking())),
        Workload::Path(config) => (config.generate(), None),
        Workload::Star(config) => (config.generate(), None),
        Workload::StarSchema(config) => (config.generate(), Some(config.revenue_ranking())),
        Workload::Random(config) => (config.generate(), None),
    };
    // The other generators rank by MAX over every variable.
    let ranking = ranking.unwrap_or_else(|| Ranking::max(instance.query().variables()));
    (instance, ranking)
}

/// Runs a one-shot subcommand against a fresh session: the workload is opened
/// as `db` and registered as `plan`, then asked. Returns the lines to print.
pub fn run_one_shot(args: &[String]) -> Result<String, RequestError> {
    let [subcommand, workload, rest @ ..] = args else {
        return Err(RequestError::usage(format!("missing arguments\n\n{HELP}")));
    };
    let (phis, keyed): (Vec<&str>, Vec<&str>) =
        (rest.iter().map(String::as_str)).partition(|t| !t.contains('='));
    // `ranking=` goes to register, `eps=` to the query, the rest to the workload.
    let (ranking, keyed): (Vec<&str>, Vec<&str>) =
        keyed.into_iter().partition(|t| t.starts_with("ranking="));
    let (accuracy, open): (Vec<&str>, Vec<&str>) =
        keyed.into_iter().partition(|t| t.starts_with("eps="));
    let (db, plan) = ("db".to_string(), "plan".to_string());
    let mut requests = vec![
        Request::Open(db.clone(), Workload::parse(workload, &open)?),
        Request::Register(plan.clone(), db, parse_ranking(&ranking)?),
    ];
    match subcommand.as_str() {
        "register" => {}
        "stats" => requests.push(Request::Stats),
        "quantile" | "batch" => {
            let (phis, accuracy) = (parse_phis(&phis)?, parse_accuracy(&accuracy)?);
            requests.push(Request::Batch(plan, phis, accuracy));
        }
        other => {
            let message = format!("unknown subcommand {other:?}\n\n{HELP}");
            return Err(RequestError::usage(message));
        }
    }
    let session = CliSession::new();
    let outputs: Vec<String> = (requests.iter())
        .map(|request| session.run(request))
        .collect::<Result<_, _>>()?;
    Ok(outputs.join("\n"))
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
        let request = Request::parse(&line);
        if matches!(request, Ok(Request::Quit | Request::Shutdown)) {
            return 0;
        }
        match request.and_then(|request| session.run(&request)) {
            Ok(output) if output.is_empty() => {}
            Ok(output) => println!("{output}"),
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

    /// Parses and runs one command line.
    fn execute(session: &CliSession, line: &str) -> Reply {
        session.run(&Request::parse(line)?)
    }

    fn ok(session: &CliSession, command: &str) -> String {
        execute(session, command).unwrap_or_else(|e| panic!("command {command:?} failed: {e}"))
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
        assert!(execute(&session, "stats nonsense").is_err());
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
        let err = execute(&session, "quantile fullsum 0.5").unwrap_err();
        assert_eq!(err.class, ErrorClass::Refused, "{err}");
        assert!(err.message.contains("cannot serve"), "{err}");
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
        let err =
            execute(&session, "quantile tinyplan 0.5 eps=0.05 delta=0.01 seed=1").unwrap_err();
        assert_eq!(err.class, ErrorClass::Refused, "{err}");
        assert!(err.message.contains("approximate solve refused"), "{err}");
        assert!(
            !err.message.contains('\n'),
            "wire errors must be one line: {err}"
        );
        // delta/seed without eps is a parse error, not a silent exact solve.
        let err = execute(&session, "quantile likes 0.5 delta=0.1").unwrap_err();
        assert_eq!(err.class, ErrorClass::Usage, "{err}");
    }

    /// The class of the error `command` fails with.
    fn class(session: &CliSession, command: &str) -> ErrorClass {
        match execute(session, command) {
            Ok(output) => panic!("command {command:?} succeeded: {output}"),
            Err(e) => e.class,
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        use ErrorClass::{Refused, Unknown, Usage};
        let session = CliSession::new();
        assert_eq!(class(&session, "open"), Usage);
        assert_eq!(class(&session, "open s nosuch"), Usage);
        assert_eq!(class(&session, "quantile nope 0.5"), Unknown);
        assert_eq!(class(&session, "bogus"), Usage);
        assert_eq!(class(&session, "quantile nope 1.5"), Usage);
        assert_eq!(class(&session, "register p nodb"), Unknown);
        ok(&session, "open s social rows=40");
        assert_eq!(class(&session, "open s social rows=40"), Refused);
        assert_eq!(class(&session, "open t social rows=x"), Usage);
        assert_eq!(class(&session, "register p s ranking=sum:zz"), Usage);
        assert_eq!(class(&session, "register p s ranking=weird:*"), Usage);
        // Typoed parameter keys fail loudly instead of running on defaults.
        assert_eq!(class(&session, "open t social row=500"), Usage);
        assert_eq!(class(&session, "register p s rankin=max:*"), Usage);
        ok(&session, "register p s");
        assert_eq!(class(&session, "register p s"), Refused);
        assert_eq!(class(&session, "quantile p 0.5 esp=0.1"), Usage);
        assert_eq!(class(&session, "batch p 0.5 esp=0.1"), Usage);
        assert_eq!(class(&session, "quantile p 0.5 eps=2"), Usage);
        // A replacement whose query no longer fits the plan is refused.
        assert_eq!(class(&session, "replace s path rows=40"), Refused);
        // The slow-query log is the server's; the session refuses it.
        assert_eq!(class(&session, "slowlog"), Refused);
    }

    #[test]
    fn connection_verbs_answer_with_their_wire_replies() {
        let session = CliSession::new();
        assert_eq!(ok(&session, "ping"), "pong");
        assert_eq!(ok(&session, "quit"), "bye");
        assert_eq!(ok(&session, "shutdown"), "shutting down");
        assert_eq!(ok(&session, "  "), "");
        assert_eq!(class(&session, "ping pong"), ErrorClass::Usage);
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
        assert_eq!(class(&session, "trace id zzz"), ErrorClass::Usage);
        assert_eq!(class(&session, "trace id ffffffff"), ErrorClass::Unknown);
        assert_eq!(class(&session, "trace bogus"), ErrorClass::Usage);
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
        let err = execute(&session, "trace last").unwrap_err();
        assert_eq!(err.class, ErrorClass::Refused, "{err}");
        assert!(err.message.contains("disabled"), "{err}");
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

        assert_eq!(class(&session, "explain"), ErrorClass::Usage);
        assert_eq!(class(&session, "explain nope 0.5"), ErrorClass::Unknown);
        assert_eq!(class(&session, "explain likes 1.5"), ErrorClass::Usage);
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
